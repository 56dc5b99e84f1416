(* Binary heap of variables in [heap.(0 .. len-1)]; [index.(v)] is the
   position of [v], or -1 when [v] is not in the heap. *)

type t = {
  mutable heap : int array;
  mutable len : int;
  mutable index : int array;
}

let create () = { heap = Array.make 8 0; len = 0; index = Array.make 8 (-1) }

let reserve h n =
  if n > Array.length h.index then begin
    let cap = max n (2 * Array.length h.index) in
    let index = Array.make cap (-1) in
    Array.blit h.index 0 index 0 (Array.length h.index);
    h.index <- index;
    let heap = Array.make cap 0 in
    Array.blit h.heap 0 heap 0 h.len;
    h.heap <- heap
  end

(* [a] pops before [b]: higher activity, ties to the lower index. *)
let before (act : float array) a b =
  let xa = act.(a) and xb = act.(b) in
  xa > xb || (xa = xb && a < b)

let sift_up h act i =
  let heap = h.heap and index = h.index in
  let v = heap.(i) in
  let i = ref i in
  while !i > 0 && before act v heap.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    heap.(!i) <- heap.(p);
    index.(heap.(!i)) <- !i;
    i := p
  done;
  heap.(!i) <- v;
  index.(v) <- !i

let sift_down h act i =
  let heap = h.heap and index = h.index and len = h.len in
  let v = heap.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= len then continue := false
    else begin
      let r = l + 1 in
      let c = if r < len && before act heap.(r) heap.(l) then r else l in
      if before act heap.(c) v then begin
        heap.(!i) <- heap.(c);
        index.(heap.(!i)) <- !i;
        i := c
      end
      else continue := false
    end
  done;
  heap.(!i) <- v;
  index.(v) <- !i

let insert h act v =
  if h.index.(v) < 0 then begin
    h.heap.(h.len) <- v;
    h.index.(v) <- h.len;
    h.len <- h.len + 1;
    sift_up h act (h.len - 1)
  end

let increase h act v = if h.index.(v) >= 0 then sift_up h act h.index.(v)

let pop h act =
  if h.len = 0 then -1
  else begin
    let top = h.heap.(0) in
    h.index.(top) <- -1;
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.heap.(0) <- h.heap.(h.len);
      sift_down h act 0
    end;
    top
  end

let rebuild h act ~n keep =
  for j = 0 to h.len - 1 do
    h.index.(h.heap.(j)) <- -1
  done;
  h.len <- 0;
  for v = 0 to n - 1 do
    if keep v then begin
      h.heap.(h.len) <- v;
      h.index.(v) <- h.len;
      h.len <- h.len + 1
    end
  done;
  for i = (h.len / 2) - 1 downto 0 do
    sift_down h act i
  done
