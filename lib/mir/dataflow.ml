type direction = Forward | Backward

type 'fact problem = {
  direction : direction;
  boundary : 'fact;
  bottom : 'fact;
  join : 'fact -> 'fact -> 'fact;
  equal : 'fact -> 'fact -> bool;
  transfer : Block.t -> 'fact -> 'fact;
  edge : (Block.t -> string -> 'fact -> 'fact) option;
  widen : ('fact -> 'fact -> 'fact) option;
  widen_after : int;
}

type 'fact result = {
  res_slot : (string, int) Hashtbl.t;
  res_in : 'fact array;
  res_out : 'fact array;
  res_bottom : 'fact;
  res_iterations : int;
}

let fact_at tab r label =
  match Hashtbl.find_opt r.res_slot label with
  | Some i -> tab.(i)
  | None -> r.res_bottom

let fact_in r label = fact_at r.res_in r label
let fact_out r label = fact_at r.res_out r label
let iterations r = r.res_iterations

(* A FIFO worklist of block indices with a membership bitmap, so a block
   queued twice before being processed is recomputed once; seeding and
   requeue order are deterministic, making every analysis result
   reproducible. *)
module Worklist = struct
  type t = { q : int Queue.t; queued : Bytes.t }

  let create n = { q = Queue.create (); queued = Bytes.make n '\000' }

  let push t i =
    if Bytes.get t.queued i = '\000' then begin
      Bytes.set t.queued i '\001';
      Queue.push i t.q
    end

  let pop t =
    if Queue.is_empty t.q then -1
    else begin
      let i = Queue.pop t.q in
      Bytes.set t.queued i '\000';
      i
    end
end

let solve (p : 'fact problem) (fn : Func.t) : 'fact result =
  let blocks = Array.of_list fn.Func.blocks in
  let n = Array.length blocks in
  (* Labels map to indices once.  A label that occurs twice (invalid
     MIR) names its last block, which alone is ever processed. *)
  let slot = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i (b : Block.t) -> Hashtbl.replace slot b.Block.label i)
    blocks;
  let canon =
    Array.map (fun (b : Block.t) -> Hashtbl.find slot b.Block.label) blocks
  in
  (* successor labels outside the function are dropped from the index
     lists: nothing flows to or from them *)
  let succ_labels = Array.map (Func.successors fn) blocks in
  let succs =
    Array.map
      (fun ls -> Array.of_list (List.filter_map (Hashtbl.find_opt slot) ls))
      succ_labels
  in
  let exits = Array.map (fun ls -> ls = []) succ_labels in
  (* predecessors invert the successor index: each edge once, sources
     in layout order (a block's successors are distinct) *)
  let preds =
    let rev = Array.make n [] in
    Array.iteri
      (fun j ss -> Array.iter (fun k -> rev.(k) <- canon.(j) :: rev.(k)) ss)
      succs;
    Array.map (fun ps -> Array.of_list (List.rev ps)) rev
  in
  let res_in = Array.make n p.bottom in
  let res_out = Array.make n p.bottom in
  let visits = Array.make n 0 in
  let iterations = ref 0 in
  let wl = Worklist.create n in
  let entry = if n = 0 then -1 else canon.(0) in
  let src_tab, dst_tab, requeue =
    match p.direction with
    | Forward -> (res_in, res_out, succs)
    | Backward -> (res_out, res_in, preds)
  in
  (* flow-source fact for one block: join over the incoming directions,
     plus the boundary where the block touches the CFG's border *)
  let source_fact i =
    match p.direction with
    | Forward ->
      let acc = ref (if i = entry then p.boundary else p.bottom) in
      let label = blocks.(i).Block.label in
      Array.iter
        (fun j ->
          let f = res_out.(j) in
          let f =
            match p.edge with Some e -> e blocks.(j) label f | None -> f
          in
          acc := p.join !acc f)
        preds.(i);
      !acc
    | Backward ->
      let acc = ref (if exits.(i) then p.boundary else p.bottom) in
      Array.iter (fun j -> acc := p.join !acc res_in.(j)) succs.(i);
      !acc
  in
  let process i =
    incr iterations;
    visits.(i) <- visits.(i) + 1;
    let fresh = source_fact i in
    let old_src = src_tab.(i) in
    let src =
      match p.widen with
      | Some w when visits.(i) > p.widen_after ->
        w old_src (p.join old_src fresh)
      | _ -> p.join old_src fresh
    in
    src_tab.(i) <- src;
    let dst = p.transfer blocks.(i) src in
    if not (p.equal dst dst_tab.(i)) || not (p.equal src old_src) then begin
      dst_tab.(i) <- dst;
      Array.iter (Worklist.push wl) requeue.(i)
    end
  in
  (* seed in flow order so the common case converges in few sweeps *)
  let seed =
    match p.direction with
    | Forward -> canon
    | Backward -> Array.of_list (List.rev (Array.to_list canon))
  in
  Array.iter (Worklist.push wl) seed;
  let rec drain () =
    let i = Worklist.pop wl in
    if i >= 0 then begin
      process i;
      drain ()
    end
  in
  drain ();
  (* Widening overshoots inside loops: a block widened on the ascending
     climb keeps its jumped bound even when the stabilized inputs
     support a tighter one (a refined loop-exit edge, a bounded back
     edge).  The drained state is a post-fixpoint, so re-applying the
     equations without widening only shrinks facts while staying above
     the least fixpoint — two descending sweeps in flow order recover
     the lost precision (classic narrowing, bounded for trivial
     termination). *)
  if Option.is_some p.widen then
    for _ = 1 to 2 do
      Array.iter
        (fun i ->
          incr iterations;
          let src = source_fact i in
          src_tab.(i) <- src;
          dst_tab.(i) <- p.transfer blocks.(i) src)
        seed
    done;
  {
    res_slot = slot;
    res_in;
    res_out;
    res_bottom = p.bottom;
    res_iterations = !iterations;
  }
