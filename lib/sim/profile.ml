type range_seq = {
  bounds : (int * int) array;
  counts : int array;
  mutable executions : int;
}

type comb_seq = {
  conds : (Mir.Cond.t * Mir.Operand.t * Mir.Operand.t) array;
  comb_counts : int array;
  mutable comb_executions : int;
}

(* range sequences are indexed by their id: detection numbers them
   densely from 0, and [record_range] runs once per sequence execution *)
type t = {
  mutable range_seqs : range_seq option array;
  comb_seqs : (int, comb_seq) Hashtbl.t;
}

let make () = { range_seqs = [||]; comb_seqs = Hashtbl.create 16 }

let find_range_seq t id =
  if id >= 0 && id < Array.length t.range_seqs then
    Array.unsafe_get t.range_seqs id
  else None

let register_range_seq t id bounds =
  if id < 0 then
    invalid_arg (Printf.sprintf "Profile.register_range_seq: negative id %d" id);
  let n = Array.length t.range_seqs in
  if id >= n then begin
    let grown = Array.make (max (id + 1) (2 * n)) None in
    Array.blit t.range_seqs 0 grown 0 n;
    t.range_seqs <- grown
  end;
  let seq =
    { bounds; counts = Array.make (Array.length bounds) 0; executions = 0 }
  in
  t.range_seqs.(id) <- Some seq;
  seq

(* the registered range sequences with their ids, in id order *)
let iter_ranges f t =
  Array.iteri
    (fun id -> function Some s -> f id s | None -> ())
    t.range_seqs

let register_comb_seq t id conds =
  if Array.length conds > 16 then
    invalid_arg "Profile.register_comb_seq: too many conditions";
  let seq =
    {
      conds;
      comb_counts = Array.make (1 lsl Array.length conds) 0;
      comb_executions = 0;
    }
  in
  Hashtbl.replace t.comb_seqs id seq;
  seq

let find_comb_seq t id = Hashtbl.find_opt t.comb_seqs id

(* binary search for the range containing v; typed, so the compares
   are integer compares rather than calls to the polymorphic one *)
let range_index (bounds : (int * int) array) (v : int) =
  let lo = ref 0 and hi = ref (Array.length bounds - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let l, h = bounds.(mid) in
    if v < l then hi := mid - 1
    else if v > h then lo := mid + 1
    else found := mid
  done;
  !found

let record_range t id v =
  match find_range_seq t id with
  | None -> invalid_arg (Printf.sprintf "Profile.record_range: unknown id %d" id)
  | Some seq ->
    let idx = range_index seq.bounds v in
    if idx < 0 then
      invalid_arg
        (Printf.sprintf "Profile.record_range: value %d not covered (seq %d)" v id);
    seq.counts.(idx) <- seq.counts.(idx) + 1;
    seq.executions <- seq.executions + 1

(* a shard shares the other table's descriptors (bounds/conds arrays
   are immutable and safe to alias) but gets private zeroed counters *)
let copy_shape src =
  let t = make () in
  t.range_seqs <-
    Array.map
      (Option.map (fun (s : range_seq) ->
           {
             bounds = s.bounds;
             counts = Array.make (Array.length s.counts) 0;
             executions = 0;
           }))
      src.range_seqs;
  Hashtbl.iter
    (fun id (s : comb_seq) ->
      Hashtbl.replace t.comb_seqs id
        {
          conds = s.conds;
          comb_counts = Array.make (Array.length s.comb_counts) 0;
          comb_executions = 0;
        })
    src.comb_seqs;
  t

let clear t =
  iter_ranges
    (fun _ (s : range_seq) ->
      Array.fill s.counts 0 (Array.length s.counts) 0;
      s.executions <- 0)
    t;
  Hashtbl.iter
    (fun _ (s : comb_seq) ->
      Array.fill s.comb_counts 0 (Array.length s.comb_counts) 0;
      s.comb_executions <- 0)
    t.comb_seqs

let absorb ~into src =
  let moved = ref 0 in
  iter_ranges
    (fun id (s : range_seq) ->
      match find_range_seq into id with
      | None -> ()
      | Some dst ->
        Array.iteri
          (fun i c ->
            if c <> 0 then begin
              dst.counts.(i) <- dst.counts.(i) + c;
              s.counts.(i) <- 0;
              moved := !moved + c
            end)
          s.counts;
        dst.executions <- dst.executions + s.executions;
        s.executions <- 0)
    src;
  Hashtbl.iter
    (fun id (s : comb_seq) ->
      match Hashtbl.find_opt into.comb_seqs id with
      | None -> ()
      | Some dst ->
        Array.iteri
          (fun i c ->
            if c <> 0 then begin
              dst.comb_counts.(i) <- dst.comb_counts.(i) + c;
              s.comb_counts.(i) <- 0;
              moved := !moved + c
            end)
          s.comb_counts;
        dst.comb_executions <- dst.comb_executions + s.comb_executions;
        s.comb_executions <- 0)
    src.comb_seqs;
  !moved

let total_executions t =
  let ranges = ref 0 in
  iter_ranges (fun _ (s : range_seq) -> ranges := !ranges + s.executions) t;
  !ranges
  + Hashtbl.fold
      (fun _ (s : comb_seq) acc -> acc + s.comb_executions)
      t.comb_seqs 0

(* raw counter export/import: the durable-state layer persists counts
   by sequence id and re-registers descriptors by re-detecting the
   program, so only the counters travel *)
let counters t =
  let ranges = ref [] in
  iter_ranges
    (fun id (s : range_seq) ->
      ranges := (id, Array.copy s.counts, s.executions) :: !ranges)
    t;
  let ranges = List.rev !ranges in
  let combs =
    Hashtbl.fold
      (fun id (s : comb_seq) acc ->
        (id, Array.copy s.comb_counts, s.comb_executions) :: acc)
      t.comb_seqs []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  (ranges, combs)

let set_counters t ~ranges ~combs =
  let applied = ref 0 in
  List.iter
    (fun (id, counts, executions) ->
      match find_range_seq t id with
      | Some dst when Array.length dst.counts = Array.length counts ->
        Array.blit counts 0 dst.counts 0 (Array.length counts);
        dst.executions <- executions;
        incr applied
      | Some _ | None -> ())
    ranges;
  List.iter
    (fun (id, counts, executions) ->
      match Hashtbl.find_opt t.comb_seqs id with
      | Some dst when Array.length dst.comb_counts = Array.length counts ->
        Array.blit counts 0 dst.comb_counts 0 (Array.length counts);
        dst.comb_executions <- executions;
        incr applied
      | Some _ | None -> ())
    combs;
  !applied

let eval_operand read_reg = function
  | Mir.Operand.Reg r -> read_reg r
  | Mir.Operand.Imm n -> n

let record_comb t id ~read_reg =
  match Hashtbl.find_opt t.comb_seqs id with
  | None -> invalid_arg (Printf.sprintf "Profile.record_comb: unknown id %d" id)
  | Some seq ->
    let mask = ref 0 in
    Array.iteri
      (fun i (cond, a, b) ->
        if Mir.Cond.eval cond (eval_operand read_reg a) (eval_operand read_reg b)
        then mask := !mask lor (1 lsl i))
      seq.conds;
    seq.comb_counts.(!mask) <- seq.comb_counts.(!mask) + 1;
    seq.comb_executions <- seq.comb_executions + 1
