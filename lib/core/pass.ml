type outcome =
  | Reordered of Apply.applied
  | Coalesced of Coalesce.plan
  | Unchanged of string

type seq_report = {
  sr_seq : Detect.t;
  sr_total : int;
  sr_choice : Select.choice option;
  sr_outcome : outcome;
  sr_orig_branches : int;
  sr_final_branches : int;
}

type report = { seq_reports : seq_report list }

let reordered_count r =
  List.length
    (List.filter
       (fun sr ->
         match sr.sr_outcome with
         | Reordered _ -> true
         | Coalesced _ | Unchanged _ -> false)
       r.seq_reports)

let coalesced_count r =
  List.length
    (List.filter
       (fun sr ->
         match sr.sr_outcome with
         | Coalesced _ -> true
         | Reordered _ | Unchanged _ -> false)
       r.seq_reports)

let detected_count r = List.length r.seq_reports

(* is the chosen configuration just the original sequence again? *)
let is_identity (seq : Detect.t) (choice : Select.choice) =
  let n = List.length seq.Detect.items in
  let ordered_payloads =
    List.map (fun it -> it.Select.in_payload) choice.Select.ordered
  in
  let eliminated_payloads =
    List.sort Int.compare
      (List.map (fun it -> it.Select.in_payload) choice.Select.eliminated)
  in
  let defaults = Detect.default_ranges seq in
  ordered_payloads = List.init n (fun i -> i)
  && eliminated_payloads = List.init (List.length defaults) (fun j -> n + j)
  && String.equal choice.Select.default_target seq.Detect.default_target

let choose ?(selector = `Greedy) ?(keep_original_default = false) fn
    (seq : Detect.t) (view : Profiles.counts_view) =
  let ccl = Analysis.Cc_live.analyze fn in
  let input = Profiles.select_input seq view in
  let compatible eliminated =
    Apply.compatible_for ~cc:ccl fn seq eliminated
    && ((not keep_original_default)
       || List.for_all
            (fun (it : Select.input_item) ->
              String.equal it.Select.in_target seq.Detect.default_target)
            eliminated)
  in
  let total = view.Profiles.total in
  match selector with
  | `Greedy -> Select.greedy ~compatible ~total input
  | `Exhaustive ->
    (* 2^m subsets per target: fall back to Figure 8 on the rare very
       long sequences *)
    if List.length input > 14 then Select.greedy ~compatible ~total input
    else Select.exhaustive ~compatible ~max_items:14 ~total input

(* widest value range an indirect-jump table may cover *)
let coalesce_max_span = 512

let run ?(options = Apply.default_options) ?(selector = `Greedy)
    ?(keep_original_default = false) ?coalesce_machine (p : Mir.Program.t)
    (seqs : Detect.t list) profile_table =
  let reports =
    List.map
      (fun (seq : Detect.t) ->
        let view = Profiles.counts profile_table seq in
        let orig_branches = Detect.branches seq in
        let base sr_outcome sr_choice sr_final =
          {
            sr_seq = seq;
            sr_total = view.Profiles.total;
            sr_choice;
            sr_outcome;
            sr_orig_branches = orig_branches;
            sr_final_branches = sr_final;
          }
        in
        if view.Profiles.total = 0 then
          base (Unchanged "never executed in training") None orig_branches
        else begin
          let fn = Mir.Program.find_func p seq.Detect.func_name in
          let choice = choose ~selector ~keep_original_default fn seq view in
          match choice with
          | None -> base (Unchanged "no compatible ordering") None orig_branches
          | Some choice ->
            (* the paper's concluding suggestion: use the profile to pick
               between reordering and an indirect jump, per machine *)
            let coalesce_plan =
              match coalesce_machine with
              | None -> None
              | Some machine -> (
                match
                  Coalesce.coalescible fn seq ~max_span:coalesce_max_span
                with
                | Some plan
                  when Coalesce.decide ~machine ~total:view.Profiles.total
                         ~reorder_cost:choice.Select.est_cost plan ->
                  Some plan
                | Some _ | None -> None)
            in
            match coalesce_plan with
            | Some plan ->
              Coalesce.apply fn seq plan;
              base (Coalesced plan) (Some choice) orig_branches
            | None ->
            if is_identity seq choice then
              base
                (Unchanged "original ordering already selected")
                (Some choice) orig_branches
            else (
              match Apply.apply_seq fn seq choice options with
              | Apply.Applied info ->
                base (Reordered info) (Some choice) info.Apply.final_branches
              | Apply.Skipped reason ->
                base (Unchanged reason) (Some choice) orig_branches)
        end)
      seqs
  in
  { seq_reports = reports }

let pp_report ppf r =
  List.iter
    (fun sr ->
      let status =
        match sr.sr_outcome with
        | Reordered info ->
          Printf.sprintf "reordered (%d items, %d branches, %d cmps merged)"
            info.Apply.final_items info.Apply.final_branches
            info.Apply.cmps_eliminated
        | Coalesced plan ->
          Printf.sprintf "coalesced into an indirect jump ([%d..%d], %d entries)"
            plan.Coalesce.table_lo plan.Coalesce.table_hi
            (Array.length plan.Coalesce.targets)
        | Unchanged reason -> "unchanged: " ^ reason
      in
      Format.fprintf ppf "seq #%d %s/%s (%d execs): %s@\n" sr.sr_seq.Detect.seq_id
        sr.sr_seq.Detect.func_name sr.sr_seq.Detect.head sr.sr_total status)
    r.seq_reports
