module Range = Reorder.Range
module Detect = Reorder.Detect
module Pass = Reorder.Pass

type seq_result = {
  v_seq_id : int;
  v_func : string;
  v_kind : [ `Reordered | `Coalesced | `Unchanged ];
  v_pieces : int;
  v_errors : string list;
}

type summary = {
  seq_results : seq_result list;
  global_errors : string list;
}

let ok s =
  s.global_errors = []
  && List.for_all (fun r -> r.v_errors = []) s.seq_results

let all_errors s =
  List.map (fun e -> "program: " ^ e) s.global_errors
  @ List.concat_map
      (fun r ->
        List.map
          (fun e -> Printf.sprintf "seq %d (%s): %s" r.v_seq_id r.v_func e)
          r.v_errors)
      s.seq_results

let pp_summary ppf s =
  let certified =
    List.length (List.filter (fun r -> r.v_errors = []) s.seq_results)
  in
  Format.fprintf ppf "@[<v>verify: %d/%d sequences certified (%d pieces)@,"
    certified
    (List.length s.seq_results)
    (List.fold_left (fun acc r -> acc + r.v_pieces) 0 s.seq_results);
  List.iter (fun e -> Format.fprintf ppf "  ERROR %s@," e) (all_errors s);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Interval sets                                                        *)
(* ------------------------------------------------------------------ *)

(* sorted, disjoint, non-adjacent inclusive intervals inside
   [Range.min_value, Range.max_value]; all compared constants are
   strictly inside (Detect's [in_bounds]), so the +-1 arithmetic below
   stays in bounds *)
module Iset = struct
  type t = (int * int) list

  let full = [ (Range.min_value, Range.max_value) ]
  let is_empty s = s = []

  let norm s =
    let s =
      List.filter_map
        (fun (lo, hi) ->
          let lo = max lo Range.min_value and hi = min hi Range.max_value in
          if lo > hi then None else Some (lo, hi))
        s
    in
    let s = List.sort compare s in
    let rec merge = function
      | (a, b) :: (c, d) :: rest when c <= b + 1 -> merge ((a, max b d) :: rest)
      | x :: rest -> x :: merge rest
      | [] -> []
    in
    merge s

  let inter a b =
    List.concat_map
      (fun (alo, ahi) ->
        List.filter_map
          (fun (blo, bhi) ->
            let lo = max alo blo and hi = min ahi bhi in
            if lo > hi then None else Some (lo, hi))
          b)
      a
    |> norm

  let diff a b =
    let sub_one (lo, hi) (blo, bhi) =
      if bhi < lo || blo > hi then [ (lo, hi) ]
      else
        (if blo > lo then [ (lo, blo - 1) ] else [])
        @ if bhi < hi then [ (bhi + 1, hi) ] else []
    in
    List.fold_left
      (fun acc cut -> List.concat_map (fun iv -> sub_one iv cut) acc)
      a b
    |> norm

  (* values satisfying [cmp v,c; b<cond>] *)
  let of_cond cond c =
    norm
      (match cond with
      | Mir.Cond.Eq -> [ (c, c) ]
      | Mir.Cond.Ne -> [ (Range.min_value, c - 1); (c + 1, Range.max_value) ]
      | Mir.Cond.Lt -> [ (Range.min_value, c - 1) ]
      | Mir.Cond.Le -> [ (Range.min_value, c) ]
      | Mir.Cond.Gt -> [ (c + 1, Range.max_value) ]
      | Mir.Cond.Ge -> [ (c, Range.max_value) ])

  let of_range r = [ (Range.lo r, Range.hi r) ]

  let pp ppf s =
    let one ppf (lo, hi) =
      if lo = hi then Format.fprintf ppf "%d" lo
      else Format.fprintf ppf "%d..%d" lo hi
    in
    Format.fprintf ppf "{%a}" (Format.pp_print_list one) s
end

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                       *)
(* ------------------------------------------------------------------ *)

let same_insns a b = List.equal Mir.Insn.equal a b

(* does the (unchanged, certified elsewhere) block at [label] consume the
   condition codes its predecessor leaves behind?  [ccl] is the
   cc-liveness analysis of the ORIGINAL function, so the answer follows
   [Jmp]-only forwarders and knows calls clobber the global cc — the
   same oracle {!Reorder.Apply} plans with. *)
let cc_needing ccl label = Analysis.Cc_live.live_in ccl label

(* drop the last compare of an instruction list, wherever it sits *)
let remove_last_cmp insns =
  let rec go post = function
    | Mir.Insn.Cmp _ :: rev_pre -> Some (List.rev_append rev_pre post)
    | i :: rest -> go (i :: post) rest
    | [] -> None
  in
  go [] (List.rev insns)

(* side effects the original sequence executes before exiting through the
   item at 0-based position [pos] (the head item never has any) *)
let prefix_insns items_arr pos =
  let out = ref [] in
  for i = 1 to pos do
    out := !out @ items_arr.(i).Detect.sides
  done;
  !out

(* what the original program guarantees on an exit edge *)
type expectation = {
  x_target : string;
  x_pre : Mir.Insn.t list;
  x_cc : (int * bool) option;  (* constant, operand-swapped *)
}

let item_expectation items_arr pos =
  let item = items_arr.(pos) in
  {
    x_target = item.Detect.target;
    x_pre = prefix_insns items_arr pos;
    x_cc = Some (item.Detect.exit_cc_const, item.Detect.exit_cc_swapped);
  }

let default_expectation (seq : Detect.t) items_arr =
  {
    x_target = seq.Detect.default_target;
    x_pre = prefix_insns items_arr (Array.length items_arr - 1);
    x_cc = Option.map (fun c -> (c, false)) seq.Detect.default_cc_const;
  }

let rec strip_prefix expected actual =
  match (expected, actual) with
  | [], rest -> Some rest
  | e :: es, a :: rest when Mir.Insn.equal e a -> strip_prefix es rest
  | _ -> None

(* the cc pair left after executing [insns] with [init] on entry, as
   (constant, swapped): [cmp var,#c] gives [(c, false)], the swapped
   [cmp #c,var] gives [(c, true)].  A compare not against the sequence
   variable, or a call (the machine's single cc register is global and
   callee-clobbered), leaves the pair unknown. *)
let cc_after ~var init insns =
  List.fold_left
    (fun acc i ->
      match i with
      | Mir.Insn.Cmp (Mir.Operand.Reg r, Mir.Operand.Imm c)
        when Mir.Reg.equal r var ->
        Some (c, false)
      | Mir.Insn.Cmp (Mir.Operand.Imm c, Mir.Operand.Reg r)
        when Mir.Reg.equal r var ->
        Some (c, true)
      | Mir.Insn.Cmp _ | Mir.Insn.Call _ -> None
      | _ -> acc)
    init insns

(* ------------------------------------------------------------------ *)
(* Certifying one reordered sequence                                    *)
(* ------------------------------------------------------------------ *)

type leaf = {
  l_label : string;
  l_values : Iset.t;
  l_cc : int option;  (* last compare constant along the chain path *)
}

(* abstract interpretation of the replica chain: split the full integer
   line at every compare/branch until a non-chain block is reached *)
let walk_chain ~fn_before ~fn_after ~var ~entry =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
  let leaves = ref [] in
  let visited_chain = ref [] in
  let is_fresh label = Mir.Func.find_block_opt fn_before label = None in
  let rec go label values cc path =
    if Iset.is_empty values then ()
    else if List.mem label path then
      err "replica chain cycles through %s" label
    else
      match Mir.Func.find_block_opt fn_after label with
      | None -> err "chain reaches undefined label %s" label
      | Some b -> (
        match b.Mir.Block.term.kind with
        | Mir.Block.Br (cond, taken, fall) when is_fresh label ->
          (* a chain block: at most one compare of the sequence variable *)
          if not (List.mem label !visited_chain) then
            visited_chain := label :: !visited_chain;
          if b.Mir.Block.term.delay <> None then
            err "chain block %s has a filled delay slot" label;
          let const =
            match b.Mir.Block.insns with
            | [] -> cc
            | [ Mir.Insn.Cmp (Mir.Operand.Reg r, Mir.Operand.Imm c) ]
              when Mir.Reg.equal r var ->
              Some c
            | _ ->
              err "chain block %s has unexpected instructions" label;
              None
          in
          (match const with
          | None -> err "chain block %s branches on unknown condition codes" label
          | Some c ->
            let sat = Iset.inter values (Iset.of_cond cond c) in
            let unsat = Iset.diff values sat in
            let path = label :: path in
            go taken sat (Some c) path;
            go fall unsat (Some c) path)
        | _ -> leaves := { l_label = label; l_values = values; l_cc = cc } :: !leaves)
  in
  go entry Iset.full None [];
  (List.rev !leaves, !visited_chain, List.rev !errors)

(* the chain edges a run of the program can actually take: retargeting
   one of these is observable, retargeting a dead edge (empty value set)
   is not — {!Fuzz}'s injection mode must only plant bugs on live edges *)
let live_leaf_edges ~fn_before ~fn_after ~var ~entry =
  let edges = ref [] in
  let is_fresh label = Mir.Func.find_block_opt fn_before label = None in
  let is_chain label =
    is_fresh label
    &&
    match Mir.Func.find_block_opt fn_after label with
    | Some b -> (
      match b.Mir.Block.term.kind with Mir.Block.Br _ -> true | _ -> false)
    | None -> false
  in
  let rec go label values cc path =
    if Iset.is_empty values || List.mem label path then ()
    else
      match Mir.Func.find_block_opt fn_after label with
      | Some b when is_chain label -> (
        match b.Mir.Block.term.kind with
        | Mir.Block.Br (cond, taken, fall) -> (
          let const =
            match b.Mir.Block.insns with
            | [] -> cc
            | [ Mir.Insn.Cmp (Mir.Operand.Reg r, Mir.Operand.Imm c) ]
              when Mir.Reg.equal r var ->
              Some c
            | _ -> None
          in
          match const with
          | None -> ()
          | Some c ->
            let sat = Iset.inter values (Iset.of_cond cond c) in
            let unsat = Iset.diff values sat in
            let path = label :: path in
            let follow dir succ vs =
              if not (Iset.is_empty vs) then
                if is_chain succ then go succ vs (Some c) path
                else edges := (label, dir, succ) :: !edges
            in
            follow `Taken taken sat;
            follow `Fall fall unsat)
        | _ -> ())
      | _ -> ()
  in
  go entry Iset.full None [];
  List.rev !edges

(* follow empty forwarding blocks ([Jmp]-only, no delay) to the label a
   jump really lands on.  Sequences applied earlier in the same pass may
   have rewritten a later sequence's exit target into such a forwarder
   (head surgery leaves [jmp replica]); jumping past it is observably
   identical, and the forwarder's own rewrite is certified separately. *)
let resolve fn label =
  let rec go label fuel =
    if fuel = 0 then label
    else
      match Mir.Func.find_block_opt fn label with
      | Some b
        when b.Mir.Block.insns = [] && b.Mir.Block.term.delay = None -> (
        match b.Mir.Block.term.kind with
        | Mir.Block.Jmp t -> go t (fuel - 1)
        | _ -> label)
      | _ -> label
  in
  go label 64

(* certify that one leaf edge, restricted to [values], provides what the
   original program guarantees for those values *)
let pp_cc ppf (c, swapped) =
  Format.fprintf ppf "%d%s" c (if swapped then " (swapped)" else "")

let check_edge ~ccl ~fn_before ~fn_after ~var (leaf : leaf) values
    (x : expectation) add_err =
  let err fmt = Format.kasprintf add_err fmt in
  let describe = Format.asprintf "values %a" Iset.pp values in
  let same_target t =
    t = x.x_target || resolve fn_after t = resolve fn_after x.x_target
  in
  let needs_cc = cc_needing ccl x.x_target in
  let check_cc given =
    if needs_cc then
      match (given, x.x_cc) with
      | Some g, Some w when g = w -> ()
      | Some g, Some w ->
        err "%s: target %s consumes condition codes of %a but the edge leaves %a"
          describe x.x_target pp_cc w pp_cc g
      | _, None ->
        err "%s: target %s consumes condition codes but the original edge \
             constant is unknown"
          describe x.x_target
      | None, _ ->
        err "%s: target %s consumes condition codes but the edge sets none"
          describe x.x_target
  in
  let leaf_cc = Option.map (fun c -> (c, false)) leaf.l_cc in
  match Mir.Func.find_block_opt fn_before leaf.l_label with
  | Some _ ->
    (* direct edge into original code *)
    if leaf.l_label <> x.x_target then
      err "%s: reach %s, original program reaches %s" describe leaf.l_label
        x.x_target
    else if x.x_pre <> [] then
      err "%s: direct edge to %s skips duplicated side effects" describe
        x.x_target
    else check_cc leaf_cc
  | None -> (
    (* a spliced edge block *)
    match Mir.Func.find_block_opt fn_after leaf.l_label with
    | None -> err "%s: edge reaches undefined label %s" describe leaf.l_label
    | Some b -> (
      if b.Mir.Block.term.delay <> None then
        err "%s: edge block %s has a filled delay slot" describe leaf.l_label;
      match strip_prefix x.x_pre b.Mir.Block.insns with
      | None ->
        err "%s: edge block %s does not start with the original side effects"
          describe leaf.l_label
      | Some rest -> (
        let reestablishment = function
          | [ Mir.Insn.Cmp (Mir.Operand.Reg r, Mir.Operand.Imm c) ]
            when Mir.Reg.equal r var ->
            Some (c, false)
          | [ Mir.Insn.Cmp (Mir.Operand.Imm c, Mir.Operand.Reg r) ]
            when Mir.Reg.equal r var ->
            Some (c, true)
          | _ -> None
        in
        match (rest, b.Mir.Block.term.kind) with
        | [], Mir.Block.Jmp t ->
          if not (same_target t) then
            err "%s: edge block %s jumps to %s, original target is %s" describe
              leaf.l_label t x.x_target
          else check_cc (cc_after ~var leaf_cc b.Mir.Block.insns)
        | rest, Mir.Block.Jmp t when reestablishment rest <> None ->
          (* condition-code reestablishment (either operand order) *)
          let c, swapped = Option.get (reestablishment rest) in
          if not (same_target t) then
            err "%s: edge block %s jumps to %s, original target is %s" describe
              leaf.l_label t x.x_target
          else if not needs_cc then
            err "%s: edge block %s reestablishes condition codes %d that %s \
                 does not consume"
              describe leaf.l_label c x.x_target
          else check_cc (Some (c, swapped))
        | rest, kind -> (
          (* tail duplication of the target block — either its original
             body, or its current body when an earlier sequence of the
             same pass already rewrote the target (that rewrite is
             certified on its own) *)
          let faithful (tb : Mir.Block.t) =
            same_insns rest tb.Mir.Block.insns
            && Mir.Block.equal_term_kind kind tb.Mir.Block.term.kind
            && tb.Mir.Block.term.delay = None
          in
          let candidates =
            List.filter_map
              (fun fn -> Mir.Func.find_block_opt fn x.x_target)
              [ fn_before; fn_after ]
          in
          match candidates with
          | [] ->
            err "%s: edge block %s carries extra instructions and target %s is \
                 not an original block"
              describe leaf.l_label x.x_target
          | _ ->
            if not (List.exists faithful candidates) then
              err "%s: edge block %s is not a faithful copy of target %s"
                describe leaf.l_label x.x_target
            else if needs_cc then
              err "%s: tail-duplicated target %s consumes condition codes"
                describe x.x_target))))

let certify_reordered ~fn_before ~fn_after (seq : Detect.t)
    (applied : Reorder.Apply.applied) =
  let errors = ref [] in
  let add_err m = errors := !errors @ [ m ] in
  let err fmt = Format.kasprintf add_err fmt in
  let pieces = ref 0 in
  let ccl = Analysis.Cc_live.analyze fn_before in
  let items_arr = Array.of_list seq.Detect.items in
  let var = seq.Detect.var in
  (* explicit ranges must still be nonoverlapping (detection promised it;
     re-check so the partition below is well defined) *)
  let rec overlap_check = function
    | [] -> ()
    | r :: rest ->
      if not (Range.nonoverlapping r rest) then
        err "original ranges overlap at %s" (Range.show r);
      overlap_check rest
  in
  overlap_check (Detect.explicit_ranges seq);
  (* head surgery: leading instructions kept, trailing compare stripped,
     unconditional jump into the replica *)
  (match
     ( Mir.Func.find_block_opt fn_before seq.Detect.head,
       Mir.Func.find_block_opt fn_after seq.Detect.head )
   with
  | Some hb, Some ha -> (
    (match remove_last_cmp hb.Mir.Block.insns with
    | Some kept ->
      if not (same_insns ha.Mir.Block.insns kept) then
        err "head %s changed beyond dropping its compare" seq.Detect.head
    | None -> err "original head %s has no compare" seq.Detect.head);
    match ha.Mir.Block.term.kind with
    | Mir.Block.Jmp t when t = applied.Reorder.Apply.replica_entry ->
      if ha.Mir.Block.term.delay <> None then
        err "head %s has a filled delay slot" seq.Detect.head
    | _ -> err "head %s does not jump to the replica entry" seq.Detect.head)
  | _ -> err "head %s missing" seq.Detect.head);
  (* interpret the chain *)
  let leaves, visited_chain, walk_errors =
    walk_chain ~fn_before ~fn_after ~var
      ~entry:applied.Reorder.Apply.replica_entry
  in
  List.iter (fun e -> err "%s" e) walk_errors;
  (* the leaves partition the full line by construction; check each piece
     against the original partition *)
  let covered = ref [] in
  List.iter
    (fun leaf ->
      covered := Iset.norm (leaf.l_values @ !covered);
      let remaining = ref leaf.l_values in
      Array.iteri
        (fun pos item ->
          let piece = Iset.inter leaf.l_values (Iset.of_range item.Detect.range) in
          if not (Iset.is_empty piece) then begin
            incr pieces;
            remaining := Iset.diff !remaining piece;
            check_edge ~ccl ~fn_before ~fn_after ~var leaf piece
              (item_expectation items_arr pos)
              add_err
          end)
        items_arr;
      if not (Iset.is_empty !remaining) then begin
        incr pieces;
        check_edge ~ccl ~fn_before ~fn_after ~var leaf !remaining
          (default_expectation seq items_arr)
          add_err
      end)
    leaves;
  if walk_errors = [] && !covered <> Iset.full then
    err "replica chain does not cover the full integer line";
  (* dominator sanity: the only way into the spliced chain is the head *)
  if walk_errors = [] then begin
    let dom = Analysis.Dom.compute fn_after in
    List.iter
      (fun label ->
        if
          not
            (Analysis.Dom.dominates dom applied.Reorder.Apply.replica_entry
               label)
        then err "chain block %s is reachable around the replica entry" label)
      visited_chain
  end;
  (!pieces, !errors)

(* ------------------------------------------------------------------ *)
(* Certifying one coalesced sequence                                    *)
(* ------------------------------------------------------------------ *)

let original_target_of (seq : Detect.t) v =
  match
    List.find_opt (fun it -> Range.mem v it.Detect.range) seq.Detect.items
  with
  | Some it -> it.Detect.target
  | None -> seq.Detect.default_target

let certify_coalesced ~fn_before ~fn_after (seq : Detect.t)
    (plan : Reorder.Coalesce.plan) =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun m -> errors := !errors @ [ m ]) fmt in
  let pieces = ref 0 in
  let items_arr = Array.of_list seq.Detect.items in
  (* coalescing is only sound without intervening side effects *)
  Array.iteri
    (fun pos item ->
      if pos > 0 && item.Detect.sides <> [] then
        err "coalesced sequence has side effects before item %d" (pos + 1))
    items_arr;
  let var = seq.Detect.var in
  let default = seq.Detect.default_target in
  (* the table leaves the bounds compare's codes behind, so no target
     of the sequence may read them, also through a jump forwarder *)
  let ccl = Analysis.Cc_live.analyze fn_before in
  List.iter
    (fun target ->
      if cc_needing ccl target then
        err "coalesced target %s consumes condition codes" target)
    (List.sort_uniq String.compare
       (default :: List.map (fun it -> it.Detect.target) seq.Detect.items));
  (match
     ( Mir.Func.find_block_opt fn_before seq.Detect.head,
       Mir.Func.find_block_opt fn_after seq.Detect.head )
   with
  | Some hb, Some ha -> (
    let orig_lead =
      match remove_last_cmp hb.Mir.Block.insns with
      | Some kept -> kept
      | None -> hb.Mir.Block.insns
    in
    let expect =
      orig_lead
      @ [ Mir.Insn.Cmp (Mir.Operand.Reg var, Mir.Operand.Imm plan.table_lo) ]
    in
    if not (same_insns ha.Mir.Block.insns expect) then
      err "coalesced head %s does not end in the low bounds check"
        seq.Detect.head;
    match ha.Mir.Block.term.kind with
    | Mir.Block.Br (Mir.Cond.Lt, low_t, hi_label) -> (
      if low_t <> default then
        err "below-table values reach %s, original default is %s" low_t default;
      incr pieces;
      match Mir.Func.find_block_opt fn_after hi_label with
      | None -> err "high bounds check %s missing" hi_label
      | Some hib -> (
        (if
           not
             (same_insns hib.Mir.Block.insns
                [
                  Mir.Insn.Cmp
                    (Mir.Operand.Reg var, Mir.Operand.Imm plan.table_hi);
                ])
         then err "high bounds check %s malformed" hi_label);
        match hib.Mir.Block.term.kind with
        | Mir.Block.Br (Mir.Cond.Gt, hi_t, jump_label) -> (
          if hi_t <> default then
            err "above-table values reach %s, original default is %s" hi_t
              default;
          incr pieces;
          match Mir.Func.find_block_opt fn_after jump_label with
          | None -> err "jump block %s missing" jump_label
          | Some jb -> (
            (match jb.Mir.Block.insns with
            | [
             Mir.Insn.Binop
               (Mir.Insn.Sub, _, Mir.Operand.Reg r, Mir.Operand.Imm lo);
            ]
              when Mir.Reg.equal r var && lo = plan.table_lo ->
              ()
            | _ -> err "jump block %s does not rebase the index" jump_label);
            match jb.Mir.Block.term.kind with
            | Mir.Block.Jtab (_, tid) ->
              let table =
                try Some (Mir.Func.jtab fn_after tid) with _ -> None
              in
              (match table with
              | None -> err "jump table %d missing" tid
              | Some table ->
                let span = plan.table_hi - plan.table_lo + 1 in
                if Array.length table <> span then
                  err "jump table covers %d values, span is %d"
                    (Array.length table) span
                else
                  for v = plan.table_lo to plan.table_hi do
                    incr pieces;
                    let got = table.(v - plan.table_lo) in
                    let want = original_target_of seq v in
                    if got <> want then
                      err "value %d jumps to %s, original program reaches %s" v
                        got want
                  done)
            | _ -> err "jump block %s does not end in an indirect jump" jump_label))
        | _ -> err "high bounds check %s does not branch on Gt" hi_label))
    | _ -> err "coalesced head %s does not branch on Lt" seq.Detect.head)
  | _ -> err "head %s missing" seq.Detect.head);
  (* every original range must be inside the table (nothing silently lost) *)
  List.iter
    (fun it ->
      if
        Range.lo it.Detect.range < plan.table_lo
        || Range.hi it.Detect.range > plan.table_hi
      then
        err "range %s of target %s escapes the table bounds"
          (Range.show it.Detect.range) it.Detect.target)
    seq.Detect.items;
  (!pieces, !errors)

(* ------------------------------------------------------------------ *)
(* Whole-report certification                                           *)
(* ------------------------------------------------------------------ *)

let block_equal (a : Mir.Block.t) (b : Mir.Block.t) =
  same_insns a.Mir.Block.insns b.Mir.Block.insns
  && Mir.Block.equal_term_kind a.Mir.Block.term.kind b.Mir.Block.term.kind
  && a.Mir.Block.term.delay = b.Mir.Block.term.delay
  && a.Mir.Block.term.annul = b.Mir.Block.term.annul

let unchanged_blocks_errors ~(before : Mir.Program.t) ~(after : Mir.Program.t)
    (report : Pass.report) =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun m -> errors := !errors @ [ m ]) fmt in
  (* heads the pass legitimately rewrote *)
  let touched = Hashtbl.create 16 in
  List.iter
    (fun (sr : Pass.seq_report) ->
      match sr.Pass.sr_outcome with
      | Pass.Reordered _ | Pass.Coalesced _ ->
        Hashtbl.replace touched
          (sr.Pass.sr_seq.Detect.func_name, sr.Pass.sr_seq.Detect.head)
          ()
      | Pass.Unchanged _ -> ())
    report.Pass.seq_reports;
  if List.length before.Mir.Program.funcs <> List.length after.Mir.Program.funcs
  then err "function count changed";
  if before.Mir.Program.globals <> after.Mir.Program.globals then
    err "globals changed";
  List.iter
    (fun (fb : Mir.Func.t) ->
      match Mir.Program.find_func_opt after fb.Mir.Func.name with
      | None -> err "function %s disappeared" fb.Mir.Func.name
      | Some fa ->
        (* the pass only appends jump tables *)
        let nb = List.length fb.Mir.Func.jtables in
        if
          List.length fa.Mir.Func.jtables < nb
          || List.filteri (fun i _ -> i < nb) fa.Mir.Func.jtables
             <> fb.Mir.Func.jtables
        then err "%s: original jump tables changed" fb.Mir.Func.name;
        List.iter
          (fun (bb : Mir.Block.t) ->
            let label = bb.Mir.Block.label in
            if not (Hashtbl.mem touched (fb.Mir.Func.name, label)) then
              match Mir.Func.find_block_opt fa label with
              | None -> err "%s: block %s disappeared" fb.Mir.Func.name label
              | Some ba ->
                if not (block_equal bb ba) then
                  err "%s: block %s was modified outside any sequence"
                    fb.Mir.Func.name label)
          fb.Mir.Func.blocks)
    before.Mir.Program.funcs;
  !errors

let certify_report ?(allow_switch = true) ~(before : Mir.Program.t)
    ~(after : Mir.Program.t) (report : Pass.report) =
  let global_errors = ref [] in
  (match Mir.Validate.program ~allow_switch after with
  | Ok () -> ()
  | Error msgs ->
    global_errors :=
      !global_errors @ List.map (fun m -> "after-validation: " ^ m) msgs);
  global_errors := !global_errors @ unchanged_blocks_errors ~before ~after report;
  let seq_results =
    List.map
      (fun (sr : Pass.seq_report) ->
        let seq = sr.Pass.sr_seq in
        let base kind pieces errors =
          {
            v_seq_id = seq.Detect.seq_id;
            v_func = seq.Detect.func_name;
            v_kind = kind;
            v_pieces = pieces;
            v_errors = errors;
          }
        in
        let funcs =
          match
            ( Mir.Program.find_func_opt before seq.Detect.func_name,
              Mir.Program.find_func_opt after seq.Detect.func_name )
          with
          | Some fb, Some fa -> Ok (fb, fa)
          | _ -> Error [ "enclosing function missing" ]
        in
        match (sr.Pass.sr_outcome, funcs) with
        | Pass.Unchanged _, _ -> base `Unchanged 0 []
        | _, Error e -> base `Reordered 0 e
        | Pass.Reordered applied, Ok (fn_before, fn_after) ->
          let pieces, errors =
            certify_reordered ~fn_before ~fn_after seq applied
          in
          base `Reordered pieces errors
        | Pass.Coalesced plan, Ok (fn_before, fn_after) ->
          let pieces, errors = certify_coalesced ~fn_before ~fn_after seq plan in
          base `Coalesced pieces errors)
      report.Pass.seq_reports
  in
  { seq_results; global_errors = !global_errors }
