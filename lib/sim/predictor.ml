type t = {
  history_bits : int;
  counter_bits : int;
  entries : int;
  table : int array;
  init_state : int;
  mutable history : int;
  mutable lookups : int;
  mutable mispredicts : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let make ~history_bits ~counter_bits ~entries =
  if history_bits < 0 || history_bits > 16 then
    invalid_arg "Predictor.make: history_bits out of range";
  if counter_bits < 1 || counter_bits > 8 then
    invalid_arg "Predictor.make: counter_bits out of range";
  if not (is_power_of_two entries) then
    invalid_arg "Predictor.make: entries must be a power of two";
  let init_state = (1 lsl (counter_bits - 1)) - 1 in
  {
    history_bits;
    counter_bits;
    entries;
    table = Array.make entries init_state;
    init_state;
    history = 0;
    lookups = 0;
    mispredicts = 0;
  }

(* the index is masked by [entries - 1] (a power of two), so table
   accesses cannot go out of bounds *)
let[@inline] access t ~site ~taken =
  let index = (site lxor t.history) land (t.entries - 1) in
  let counter = Array.unsafe_get t.table index in
  let predict_taken = counter >= 1 lsl (t.counter_bits - 1) in
  t.lookups <- t.lookups + 1;
  if predict_taken <> taken then t.mispredicts <- t.mispredicts + 1;
  let max_counter = (1 lsl t.counter_bits) - 1 in
  Array.unsafe_set t.table index
    (if taken then min max_counter (counter + 1) else max 0 (counter - 1));
  if t.history_bits > 0 then
    t.history <-
      ((t.history lsl 1) lor (if taken then 1 else 0))
      land ((1 lsl t.history_bits) - 1)

let lookups t = t.lookups
let mispredicts t = t.mispredicts

let reset t =
  Array.fill t.table 0 t.entries t.init_state;
  t.history <- 0;
  t.lookups <- 0;
  t.mispredicts <- 0

let describe t =
  Printf.sprintf "(%d,%d)x%d" t.history_bits t.counter_bits t.entries

(* ------------------------------------------------------------------ *)
(* Predictor banks: a prebuilt flat array of predictors fed through an *)
(* event buffer of their own.                                          *)
(* ------------------------------------------------------------------ *)

(* Batched delivery: fold [n] packed events ([(site lsl 1) lor taken],
   oldest first) into one predictor.  Transposing the loop — one
   predictor at a time over the whole batch instead of the whole bank
   per event — keeps each predictor's table, history and counts hot in
   cache for the duration of the batch; since a predictor's state
   evolves only through its own in-order event fold, the final state is
   byte-identical to streaming delivery via {!access}.  The inner loops
   are specialized for the common predictor shapes of the paper's
   sweep: 1-bit counters (store the outcome), wider saturating
   counters, and history-indexed tables. *)
let drain_pred (p : t) buf n =
  let mask = p.entries - 1 in
  let table = p.table in
  let shift = p.counter_bits - 1 in
  let maxc = (1 lsl p.counter_bits) - 1 in
  let misp = ref 0 in
  if p.history_bits = 0 then begin
    if p.counter_bits = 1 then
      for j = 0 to n - 1 do
        let e = Array.unsafe_get buf j in
        let taken = e land 1 in
        let index = (e lsr 1) land mask in
        let counter = Array.unsafe_get table index in
        misp := !misp + (counter lxor taken);
        Array.unsafe_set table index taken
      done
    else
      for j = 0 to n - 1 do
        let e = Array.unsafe_get buf j in
        let taken = e land 1 in
        let index = (e lsr 1) land mask in
        let counter = Array.unsafe_get table index in
        misp := !misp + ((counter lsr shift) lxor taken);
        (* saturate with int comparisons: the polymorphic min/max would
           cost a generic-compare call per event *)
        let counter = counter + taken + taken - 1 in
        let counter =
          if counter > maxc then maxc else if counter < 0 then 0 else counter
        in
        Array.unsafe_set table index counter
      done
  end
  else begin
    let hmask = (1 lsl p.history_bits) - 1 in
    let hist = ref p.history in
    for j = 0 to n - 1 do
      let e = Array.unsafe_get buf j in
      let taken = e land 1 in
      let index = ((e lsr 1) lxor !hist) land mask in
      let counter = Array.unsafe_get table index in
      misp := !misp + ((counter lsr shift) lxor taken);
      let counter = counter + taken + taken - 1 in
      let counter =
        if counter > maxc then maxc else if counter < 0 then 0 else counter
      in
      Array.unsafe_set table index counter;
      hist := ((!hist lsl 1) lor taken) land hmask
    done;
    p.history <- !hist
  end;
  p.lookups <- p.lookups + n;
  p.mispredicts <- p.mispredicts + !misp

(* the 2-bit saturating update, indexed by [(counter lsl 1) lor taken] *)
let next_2bit = [| 0; 1; 0; 2; 1; 3; 2; 3 |]

(* Fold [n] events into a (0,1) and a (0,2) predictor of the same size
   in one pass: both tables share the event load and the index.  Each
   predictor still sees its own stream in order, so the result equals
   two {!drain_pred} calls. *)
let drain_pair (p1 : t) (p2 : t) buf n =
  let mask = p1.entries - 1 in
  let t1 = p1.table and t2 = p2.table in
  let misp1 = ref 0 and misp2 = ref 0 in
  for j = 0 to n - 1 do
    let e = Array.unsafe_get buf j in
    let taken = e land 1 in
    let index = (e lsr 1) land mask in
    let c1 = Array.unsafe_get t1 index in
    misp1 := !misp1 + (c1 lxor taken);
    Array.unsafe_set t1 index taken;
    let c2 = Array.unsafe_get t2 index in
    misp2 := !misp2 + ((c2 lsr 1) lxor taken);
    Array.unsafe_set t2 index
      (Array.unsafe_get next_2bit ((c2 lsl 1) lor taken))
  done;
  p1.lookups <- p1.lookups + n;
  p1.mispredicts <- p1.mispredicts + !misp1;
  p2.lookups <- p2.lookups + n;
  p2.mispredicts <- p2.mispredicts + !misp2

let buffer_events = 8192

(* one fold of the bank: a (0,1) and a (0,2) predictor of one table
   size in one pass, or any other predictor on its own *)
type fold = Pair of t * t | Single of t

(* [pending] events of [buf] are recorded but not yet folded: every
   read below flushes them first, so no caller can tell a bank from one
   fed event by event *)
type bank = {
  bank_keys : (int * int * int) array;
  bank_preds : t array;
  folds : fold array;
  buf : int array;
  mutable pending : int;
}

(* pair each (0,1,E) predictor with the first unpaired (0,2,E) one *)
let folds_of keys preds =
  let n = Array.length keys in
  let paired = Array.make n false in
  let folds = ref [] in
  let rec partner e j =
    if j >= n then None
    else if (not paired.(j)) && keys.(j) = (0, 2, e) then Some j
    else partner e (j + 1)
  in
  Array.iteri
    (fun i key ->
      match key with
      | 0, 1, e -> (
        match partner e 0 with
        | Some j ->
          paired.(i) <- true;
          paired.(j) <- true;
          folds := Pair (preds.(i), preds.(j)) :: !folds
        | None -> ())
      | _ -> ())
    keys;
  Array.iteri
    (fun i p -> if not paired.(i) then folds := Single p :: !folds)
    preds;
  Array.of_list (List.rev !folds)

let bank keys =
  let bank_keys = Array.of_list keys in
  let bank_preds =
    Array.map
      (fun (h, c, e) -> make ~history_bits:h ~counter_bits:c ~entries:e)
      bank_keys
  in
  {
    bank_keys;
    bank_preds;
    folds = folds_of bank_keys bank_preds;
    buf = Array.make buffer_events 0;
    pending = 0;
  }

let flush b =
  if b.pending > 0 then begin
    Array.iter
      (function
        | Pair (p1, p2) -> drain_pair p1 p2 b.buf b.pending
        | Single p -> drain_pred p b.buf b.pending)
      b.folds;
    b.pending <- 0
  end

(* a full buffer is folded at once, so [pending] stays below
   [buffer_events] between calls *)
let bank_access b ~site ~taken =
  let n = b.pending in
  b.buf.(n) <- (site lsl 1) lor Bool.to_int taken;
  b.pending <- n + 1;
  if n + 1 = buffer_events then flush b

let bank_reset b =
  b.pending <- 0;
  Array.iter reset b.bank_preds

let bank_size b = Array.length b.bank_preds

let bank_mispredicts b =
  flush b;
  Array.to_list
    (Array.map2
       (fun key p -> (key, mispredicts p))
       b.bank_keys b.bank_preds)

let bank_lookups b =
  flush b;
  Array.to_list
    (Array.map2 (fun key p -> (key, lookups p)) b.bank_keys b.bank_preds)

(* Branch-event sink: what an execution backend feeds each conditional
   branch outcome into.  [Sink_bank] is the allocation-free fast path
   the measure stage uses; [Sink_fun] serves traces, profile-layout
   counting and the differential tests. *)
type sink =
  | Sink_none
  | Sink_bank of bank
  | Sink_fun of (site:int -> taken:bool -> unit)

let sink_event s ~site ~taken =
  match s with
  | Sink_none -> ()
  | Sink_bank b -> bank_access b ~site ~taken
  | Sink_fun f -> f ~site ~taken
