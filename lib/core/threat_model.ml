(** Table I of the paper as executable data: the four threat vectors, when
    they strike, and what role EDA plays for each. Every role is backed by
    a concrete evaluation or mitigation implemented in this toolkit, so the
    table can be *regenerated* rather than merely restated. *)

type vector =
  | Side_channel
  | Fault_injection
  | Piracy_counterfeiting
  | Trojans

let all = [ Side_channel; Fault_injection; Piracy_counterfeiting; Trojans ]

type attack_time = Runtime | Manufacturing | In_the_field | Design_time

type role = Evaluation_at_design_time | Mitigation_at_design_time | Verification | Test_preparation

type row = {
  vector : vector;
  times : attack_time list;
  roles : role list;
  toolkit_evaluation : string;  (* module implementing the evaluation *)
  toolkit_mitigation : string;  (* module implementing the mitigation *)
}

let name = function
  | Side_channel -> "Side-channel attacks"
  | Fault_injection -> "Fault-injection attacks"
  | Piracy_counterfeiting -> "IP piracy; counterfeiting"
  | Trojans -> "Hardware Trojans"

let time_name = function
  | Runtime -> "runtime"
  | Manufacturing -> "manufacturing"
  | In_the_field -> "in the field"
  | Design_time -> "design"

let role_name = function
  | Evaluation_at_design_time -> "evaluation at design time"
  | Mitigation_at_design_time -> "mitigation at design time"
  | Verification -> "verification"
  | Test_preparation -> "preparing for test/inspection"

let table =
  [ { vector = Side_channel;
      times = [ Runtime ];
      roles = [ Evaluation_at_design_time; Mitigation_at_design_time ];
      toolkit_evaluation = "Sidechannel.Tvla / Sidechannel.Cpa / Iflow.Qif";
      toolkit_mitigation = "Synth.Masking (ISW) + Synth.Pipeline optimize_secure" };
    { vector = Fault_injection;
      times = [ Runtime ];
      roles = [ Evaluation_at_design_time; Mitigation_at_design_time ];
      toolkit_evaluation = "Fault.Model (campaigns) / Fault.Dfa";
      toolkit_mitigation = "Fault.Countermeasure (parity/duplication/infective)" };
    { vector = Piracy_counterfeiting;
      times = [ Manufacturing; In_the_field ];
      roles = [ Mitigation_at_design_time ];
      toolkit_evaluation = "Locking.Sat_attack / Locking.Structural / Splitmfg.Split";
      toolkit_mitigation = "Locking.Lock / Camo.Camouflage / Splitmfg + Puf (counterfeiting)" };
    { vector = Trojans;
      times = [ Design_time; Manufacturing ];
      roles = [ Mitigation_at_design_time; Verification; Test_preparation ];
      toolkit_evaluation = "Trojan.Detect (MERO/fingerprint/IDDQ)";
      toolkit_mitigation = "Trojan.Bisa / Iflow.Taint (design-time verification)" } ]
