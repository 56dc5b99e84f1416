(** Static timing analysis over per-kind nominal delays. Primary inputs
    and DFF outputs launch at time 0; endpoints are primary outputs and
    DFF D-inputs. *)

type report = {
  arrival : float array;  (** per node, picoseconds *)
  critical_path_delay : float;
  critical_output : string;  (** name of the latest endpoint *)
}

(** Arrival times and the critical endpoint; [delay_of node kind]
    overrides the library delays, e.g. with process variation for
    fingerprinting. *)
val analyze :
  ?delay_of:(int -> Netlist.Gate.kind -> float) -> Netlist.Circuit.t -> report

(** Logic depth in gate levels (unit-delay model). *)
val depth : Netlist.Circuit.t -> int

(** Per-node delay function with Gaussian process variation of relative
    [sigma]; deterministic in the generator state. *)
val varied_delays :
  Eda_util.Rng.t -> sigma:float -> Netlist.Circuit.t -> int -> Netlist.Gate.kind -> float
