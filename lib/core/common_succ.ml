type run = {
  cs_id : int;
  cs_func : string;
  labels : string list;
  common_succ : string;
  final_fail : string;
  conds : (Mir.Cond.t * Mir.Operand.t * Mir.Operand.t) array;
  costs : int array;
}

(* as the paper suggests for the combination-counter table *)
let max_run_length = 7

(* a chain link: pure compare + branch.  Non-head links must be exactly
   one compare (they are permuted wholesale); the head may carry leading
   instructions, which stay put in front of the permuted chain. *)
let link_of (b : Mir.Block.t) =
  match b.Mir.Block.insns, b.Mir.Block.term.kind with
  | [ Mir.Insn.Cmp (x, y) ], Mir.Block.Br (cond, taken, fall)
    when not (String.equal taken fall) ->
    Some (x, y, cond, taken, fall)
  | _ -> None

let head_link_of (b : Mir.Block.t) =
  match List.rev b.Mir.Block.insns, b.Mir.Block.term.kind with
  | Mir.Insn.Cmp (x, y) :: _, Mir.Block.Br (cond, taken, fall)
    when not (String.equal taken fall) ->
    Some (x, y, cond, taken, fall)
  | _ -> None

let find_func ?(exclude = fun _ -> false) ~next_id (fn : Mir.Func.t) =
  let preds = Mir.Func.predecessors fn in
  let single_pred label =
    match Hashtbl.find_opt preds label with
    | Some [ _ ] -> true
    | Some _ | None -> false
  in
  let claimed = Hashtbl.create 16 in
  let runs = ref [] in
  List.iter
    (fun (b : Mir.Block.t) ->
      if (not (Hashtbl.mem claimed b.Mir.Block.label)) && not (exclude b.Mir.Block.label)
      then
        match head_link_of b with
        | None -> ()
        | Some (x, y, cond, taken, fall) ->
          (* try both orientations: common successor on the taken side
             (|| chains) and on the fall-through side (&& chains) *)
          let try_orient cs first_next first_cond =
            let rec extend labels conds costs next =
              if
                List.length labels >= max_run_length
                || Hashtbl.mem claimed next || exclude next
                || String.equal next cs
                || not (single_pred next)
              then (labels, conds, costs, next)
              else
                match Mir.Func.find_block_opt fn next with
                | None -> (labels, conds, costs, next)
                | Some nb -> (
                  match link_of nb with
                  | Some (nx, ny, ncond, ntaken, nfall)
                    when String.equal ntaken cs && not (String.equal nfall cs) ->
                    extend (labels @ [ next ])
                      (conds @ [ (ncond, nx, ny) ])
                      (costs @ [ List.length nb.Mir.Block.insns + 1 ])
                      nfall
                  | Some (nx, ny, ncond, ntaken, nfall)
                    when String.equal nfall cs && not (String.equal ntaken cs) ->
                    extend (labels @ [ next ])
                      (conds @ [ (Mir.Cond.negate ncond, nx, ny) ])
                      (costs @ [ List.length nb.Mir.Block.insns + 1 ])
                      ntaken
                  | Some _ | None -> (labels, conds, costs, next))
            in
            (* the head's leading instructions stay put, so its condition
               costs one compare plus one branch like the others *)
            extend [ b.Mir.Block.label ] [ (first_cond, x, y) ] [ 2 ] first_next
          in
          let candidates =
            [ try_orient taken fall cond;
              try_orient fall taken (Mir.Cond.negate cond) ]
          in
          let cs_of i = if i = 0 then taken else fall in
          let best = ref None in
          List.iteri
            (fun i (labels, conds, costs, final) ->
              if List.length labels >= 2 then
                match !best with
                | Some (blabels, _, _, _, _) when List.length blabels >= List.length labels
                  -> ()
                | _ -> best := Some (labels, conds, costs, final, cs_of i))
            candidates;
          (match !best with
          | Some (labels, conds, costs, final_fail, cs) ->
            let r =
              {
                cs_id = !next_id;
                cs_func = fn.Mir.Func.name;
                labels;
                common_succ = cs;
                final_fail;
                conds = Array.of_list conds;
                costs = Array.of_list costs;
              }
            in
            incr next_id;
            List.iter (fun l -> Hashtbl.replace claimed l ()) labels;
            runs := r :: !runs
          | None -> ()))
    fn.Mir.Func.blocks;
  List.rev !runs

let find_program ?exclude ?(first_id = 0) (p : Mir.Program.t) =
  let next_id = ref first_id in
  List.concat_map (fun fn -> find_func ?exclude ~next_id fn) p.Mir.Program.funcs

let instrument (p : Mir.Program.t) runs (table : Sim.Profile.t) =
  List.iter
    (fun r ->
      ignore (Sim.Profile.register_comb_seq table r.cs_id r.conds);
      let fn = Mir.Program.find_func p r.cs_func in
      let head = Mir.Func.find_block fn (List.hd r.labels) in
      (* just before the head's compare: every condition operand is
         defined by then (the head prefix may define the first one) *)
      let rec splice = function
        | [ (Mir.Insn.Cmp _ as cmp) ] -> [ Mir.Insn.Profile_comb r.cs_id; cmp ]
        | i :: rest -> i :: splice rest
        | [] -> invalid_arg "Common_succ.instrument: head has no compare"
      in
      head.Mir.Block.insns <- splice head.Mir.Block.insns)
    runs

let expected_cost ~counts ~costs order =
  let n = Array.length costs in
  let masks = Array.length counts in
  let total = ref 0 in
  for mask = 0 to masks - 1 do
    if counts.(mask) > 0 then begin
      (* instructions executed until the first satisfied condition in
         [order]; all of them when none is satisfied *)
      let cost = ref 0 in
      (try
         for k = 0 to n - 1 do
           let i = order.(k) in
           cost := !cost + costs.(i);
           if mask land (1 lsl i) <> 0 then raise Exit
         done
       with Exit -> ());
      total := !total + (counts.(mask) * !cost)
    end
  done;
  !total

(* all permutations of 0..n-1, generated deterministically *)
let permutations n =
  let rec go avail =
    if avail = [] then [ [] ]
    else
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p) (go (List.filter (( <> ) x) avail)))
        avail
  in
  List.map Array.of_list (go (List.init n (fun i -> i)))

let best_permutation ~counts ~costs =
  let n = Array.length costs in
  let best = ref (Array.init n (fun i -> i)) in
  let best_cost = ref (expected_cost ~counts ~costs !best) in
  List.iter
    (fun p ->
      let c = expected_cost ~counts ~costs p in
      if c < !best_cost then begin
        best := p;
        best_cost := c
      end)
    (permutations n);
  !best

type outcome =
  | Reordered of int array
  | Unchanged of string

let apply (p : Mir.Program.t) (table : Sim.Profile.t) r =
  match Sim.Profile.find_comb_seq table r.cs_id with
  | None -> Unchanged "no profile data registered"
  | Some prof ->
    if prof.Sim.Profile.comb_executions = 0 then
      Unchanged "never executed in training"
    else begin
      let counts = prof.Sim.Profile.comb_counts in
      let order = best_permutation ~counts ~costs:r.costs in
      if order = Array.init (Array.length order) (fun i -> i) then
        Unchanged "original order already optimal"
      else begin
        let fn = Mir.Program.find_func p r.cs_func in
        let shells =
          List.map (fun l -> Mir.Func.find_block fn l) r.labels
        in
        (* the permutable content of each block is its final compare; the
           head's leading instructions (including profiling pseudos) stay
           in the head shell, in front of whichever compare lands there *)
        let contents =
          List.map
            (fun (b : Mir.Block.t) ->
              match List.rev b.Mir.Block.insns with
              | (Mir.Insn.Cmp _ as cmp) :: _ -> [ cmp ]
              | _ -> assert false (* links always end with a compare *))
            shells
          |> Array.of_list
        in
        let head_prefix =
          match List.rev (List.hd shells).Mir.Block.insns with
          | Mir.Insn.Cmp _ :: rev_prefix -> List.rev rev_prefix
          | _ -> assert false
        in
        let shells = Array.of_list shells in
        let n = Array.length shells in
        Array.iteri
          (fun k i ->
            let shell = shells.(k) in
            let body = contents.(i) in
            let body = if k = 0 then head_prefix @ body else body in
            let next =
              if k = n - 1 then r.final_fail
              else shells.(k + 1).Mir.Block.label
            in
            let cond, _, _ = r.conds.(i) in
            shell.Mir.Block.insns <- body;
            shell.Mir.Block.term <-
              Mir.Block.term (Mir.Block.Br (cond, r.common_succ, next)))
          order;
        Reordered order
      end
    end

(* ------------------------------------------------------------------ *)
(* Sequences as super-branches (Figure 14(d)-(e))                      *)
(* ------------------------------------------------------------------ *)

type pair = {
  pr_id : int;
  pr_first : run;
  pr_second : run;
}

let head_label r = List.hd r.labels

(* the second group's head must carry nothing but its compare: anything
   else would be a side effect executed between the groups *)
let head_is_bare fn label =
  match Mir.Func.find_block_opt fn label with
  | Some { Mir.Block.insns = [ Mir.Insn.Cmp _ ]; _ } -> true
  | Some _ | None -> false

let find_pairs (p : Mir.Program.t) runs ~first_id =
  let next = ref first_id in
  let used = Hashtbl.create 8 in
  List.filter_map
    (fun r1 ->
      if Hashtbl.mem used r1.cs_id then None
      else
        match
          List.find_opt
            (fun r2 ->
              (not (Hashtbl.mem used r2.cs_id))
              && r2.cs_id <> r1.cs_id
              && String.equal r1.cs_func r2.cs_func
              && String.equal r1.common_succ (head_label r2)
              && String.equal r1.final_fail r2.final_fail
              (* degenerate shapes where the leave targets alias a group
                 head or each other cannot be relinked safely *)
              && (not (String.equal r2.common_succ r2.final_fail))
              && (not (String.equal r1.final_fail (head_label r2)))
              && (not (String.equal r2.common_succ (head_label r1)))
              && Array.length r1.conds + Array.length r2.conds
                 <= max_run_length)
            runs
        with
        | None -> None
        | Some r2 ->
          let fn = Mir.Program.find_func p r1.cs_func in
          let preds = Mir.Func.predecessors fn in
          let second_entered_only_from_first =
            match Hashtbl.find_opt preds (head_label r2) with
            | Some ps -> List.for_all (fun l -> List.mem l r1.labels) ps
            | None -> false
          in
          if second_entered_only_from_first && head_is_bare fn (head_label r2)
          then begin
            Hashtbl.replace used r1.cs_id ();
            Hashtbl.replace used r2.cs_id ();
            let id = !next in
            incr next;
            Some { pr_id = id; pr_first = r1; pr_second = r2 }
          end
          else None)
    runs

let instrument_pairs (p : Mir.Program.t) pairs (table : Sim.Profile.t) =
  List.iter
    (fun pr ->
      let conds = Array.append pr.pr_first.conds pr.pr_second.conds in
      ignore (Sim.Profile.register_comb_seq table pr.pr_id conds);
      let fn = Mir.Program.find_func p pr.pr_first.cs_func in
      let head = Mir.Func.find_block fn (head_label pr.pr_first) in
      let rec splice = function
        | [ (Mir.Insn.Cmp _ as cmp) ] -> [ Mir.Insn.Profile_comb pr.pr_id; cmp ]
        | i :: rest -> i :: splice rest
        | [] -> invalid_arg "Common_succ.instrument_pairs: head has no compare"
      in
      head.Mir.Block.insns <- splice head.Mir.Block.insns)
    pairs

(* expected instructions for one outcome mask under a group order: walk
   the first group's conditions until one escapes (go to the second
   group) or all fail (leave: the conjunction held); same in the second
   group, whose escape leaves to the final fail target *)
let pair_cost ~counts ~first ~second ~swapped =
  let n1 = Array.length first.conds in
  let group_cost costs offsets mask =
    (* returns (instructions, escaped) *)
    let cost = ref 0 and escaped = ref false in
    (try
       Array.iteri
         (fun i c ->
           cost := !cost + c;
           if mask land (1 lsl offsets.(i)) <> 0 then begin
             escaped := true;
             raise Exit
           end)
         costs
     with Exit -> ());
    (!cost, !escaped)
  in
  let offsets1 = Array.init n1 (fun i -> i) in
  let offsets2 = Array.init (Array.length second.conds) (fun i -> n1 + i) in
  let ga, oa, gb, ob =
    if swapped then (second.costs, offsets2, first.costs, offsets1)
    else (first.costs, offsets1, second.costs, offsets2)
  in
  let total = ref 0 in
  Array.iteri
    (fun mask count ->
      if count > 0 then begin
        let ca, escaped = group_cost ga oa mask in
        let c =
          if escaped then ca + fst (group_cost gb ob mask) else ca
        in
        total := !total + (count * c)
      end)
    counts;
  !total

let retarget_run fn r ~from ~into =
  List.iter
    (fun l ->
      match Mir.Func.find_block_opt fn l with
      | Some b ->
        b.Mir.Block.term <- Mir.Block.retarget_term b.Mir.Block.term ~from ~into
      | None -> ())
    r.labels

let apply_pair (p : Mir.Program.t) (table : Sim.Profile.t) pr =
  match Sim.Profile.find_comb_seq table pr.pr_id with
  | None -> Unchanged "no joint profile registered"
  | Some prof ->
    if prof.Sim.Profile.comb_executions = 0 then
      Unchanged "never executed in training"
    else begin
      let counts = prof.Sim.Profile.comb_counts in
      let keep =
        pair_cost ~counts ~first:pr.pr_first ~second:pr.pr_second ~swapped:false
      in
      let swap =
        pair_cost ~counts ~first:pr.pr_first ~second:pr.pr_second ~swapped:true
      in
      if swap >= keep then Unchanged "original group order already optimal"
      else begin
        let fn = Mir.Program.find_func p pr.pr_first.cs_func in
        let h1 = head_label pr.pr_first and h2 = head_label pr.pr_second in
        let final = pr.pr_second.common_succ in
        let h1_block = Mir.Func.find_block fn h1 in
        (* the first head may carry leading instructions (the enclosing
           block's computations); they must keep executing before EITHER
           group, so split them off: the original head block keeps the
           prefix and enters the second group, while a fresh block takes
           over as the first group's head *)
        let r1_head, r1_labels =
          match List.rev h1_block.Mir.Block.insns with
          | (Mir.Insn.Cmp _ as cmp) :: ([] as _rev_prefix) ->
            ignore cmp;
            (h1, pr.pr_first.labels)
          | (Mir.Insn.Cmp _ as cmp) :: rev_prefix ->
            let label = Mir.Func.fresh_label fn in
            let nb = Mir.Block.make ~label [ cmp ] h1_block.Mir.Block.term.Mir.Block.kind in
            nb.Mir.Block.term <- h1_block.Mir.Block.term;
            h1_block.Mir.Block.insns <- List.rev rev_prefix;
            h1_block.Mir.Block.term <- Mir.Block.term (Mir.Block.Jmp h2);
            Mir.Func.insert_blocks_after fn h1 [ nb ];
            (label, label :: List.tl pr.pr_first.labels)
          | _ -> assert false (* runs always end their head with a compare *)
        in
        let r1 = { pr.pr_first with labels = r1_labels } in
        if String.equal r1_head h1 then begin
          (* bare head: entries into the structure start at group 2 now *)
          List.iter
            (fun (b : Mir.Block.t) ->
              if
                (not (List.mem b.Mir.Block.label r1.labels))
                && not (List.mem b.Mir.Block.label pr.pr_second.labels)
              then
                b.Mir.Block.term <-
                  Mir.Block.retarget_term b.Mir.Block.term ~from:h1 ~into:h2)
            fn.Mir.Func.blocks;
          List.iter
            (fun (jt : string array) ->
              Array.iteri
                (fun i t -> if String.equal t h1 then jt.(i) <- h2)
                jt)
            fn.Mir.Func.jtables
        end;
        (* first group's escapes now leave the structure *)
        retarget_run fn r1 ~from:h2 ~into:final;
        (* second group's escapes now try the first group *)
        retarget_run fn pr.pr_second ~from:final ~into:r1_head;
        Reordered [| 1; 0 |]
      end
    end
