module Detect = Reorder.Detect
module Pass = Reorder.Pass

type failure = {
  f_case : int;
  f_spec : Gen.spec;
  f_shrunk : Gen.spec;
  f_errors : string list;
}

type stats = {
  st_cases : int;
  st_reordered : int;
  st_coalesced : int;
  st_unchanged : int;
  st_pieces : int;
  st_injected : int;
  st_caught : int;
  st_counterexample_blocks : int option;
  st_lint_diags : int;
      (* lint verdicts cross-checked against reference block traces *)
  st_form_counts : (string * int) list;
  st_failures : failure list;
}

let ok st = st.st_failures = []

let pp_failure ppf f =
  Format.fprintf ppf "@[<v>case %d failed:@,%a@,shrunk counterexample:@,%a@,%a@]"
    f.f_case
    (Format.pp_print_list (fun ppf e -> Format.fprintf ppf "  %s" e))
    f.f_errors Gen.pp_spec f.f_shrunk
    (fun ppf () ->
      Format.fprintf ppf "original spec:@,%a" Gen.pp_spec f.f_spec)
    ()

let pp_stats ppf st =
  Format.fprintf ppf
    "@[<v>%d cases: %d reordered, %d coalesced, %d unchanged sequences; %d \
     pieces certified@,forms: %s@,"
    st.st_cases st.st_reordered st.st_coalesced st.st_unchanged st.st_pieces
    (String.concat ", "
       (List.map (fun (f, n) -> Printf.sprintf "%s=%d" f n) st.st_form_counts));
  if st.st_injected > 0 then
    Format.fprintf ppf "injected %d bugs, caught %d%s@," st.st_injected
      st.st_caught
      (match st.st_counterexample_blocks with
      | Some b -> Printf.sprintf " (smallest counterexample: %d blocks)" b
      | None -> "");
  if st.st_lint_diags > 0 then
    Format.fprintf ppf "%d lint verdicts cross-checked against traces@,"
      st.st_lint_diags;
  (match st.st_failures with
  | [] -> Format.fprintf ppf "all cases passed@,"
  | fs ->
    Format.fprintf ppf "%d FAILURES@," (List.length fs);
    List.iter (fun f -> Format.fprintf ppf "%a@," pp_failure f) fs);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* One case through the pipeline                                        *)
(* ------------------------------------------------------------------ *)

(* [Check] cannot depend on [Driver] (the pipeline itself grows a
   [~verify] option built on this library), so the fuzzer assembles the
   same stages directly at the MIR level. *)

let build spec =
  let p = Gen.to_program spec in
  Mir.Validate.check ~allow_switch:true p;
  Mopt.Switch_lower.lower_program (Gen.heuristic_of_spec spec) p;
  Mopt.Cleanup.run p;
  Mir.Validate.check p;
  p

(* alternate the coalescing decision so the verifier's jump-table path is
   exercised too *)
let case_coalesce case = case mod 2 = 1
let case_facts case = case mod 4 < 2

let coalesce_machine_for case =
  if case_coalesce case then Some Sim.Cycle_model.sparc_ipc else None

(* alternate the detector too: even cases use the interval-facts walk
   (the pipeline default), odd cases the syntactic one, so both are
   under the verifier and the backend differential *)
let transform_built ?coalesce_machine ?(profile = `Trained) ~facts ~train base =
  let seqs = Detect.find_program ~facts base in
  let table =
    match profile with
    | `Static ->
      (* profile-free mode: counts synthesized from the CFG alone, no
         training run at all *)
      Reorder.Profiles.of_static base seqs
    | `Trained ->
      let train_prog = Mir.Clone.program base in
      let table = Reorder.Profiles.instrument train_prog seqs in
      let (_ : Sim.Machine.result) =
        Sim.Machine.run ~profile:table train_prog ~input:train
      in
      table
  in
  let reord = Mir.Clone.program base in
  let report = Pass.run ?coalesce_machine reord seqs table in
  (base, reord, report)

let transform ?coalesce_machine ?profile ~facts spec =
  transform_built ?coalesce_machine ?profile ~facts
    ~train:spec.Gen.sp_train (build spec)

(* ------------------------------------------------------------------ *)
(* Bug injection: wrong default target                                  *)
(* ------------------------------------------------------------------ *)

(* retarget a {b live} exit edge of some replica chain (one whose
   abstract value set is nonempty — a dead edge can point anywhere
   without changing semantics, which would make the run vacuous) at a
   returning block that is not any of the sequence's targets.
   [Mir.Validate] stays green, so only the verifier can object.  When
   every returning block of the original function is a target of the
   sequence, a fresh block returning a sentinel no original block
   returns is spliced in instead — it can never pass for a faithful
   tail duplicate. *)
let inject_wrong_default ~before ~after (report : Pass.report) =
  let try_seq (sr : Pass.seq_report) =
    match sr.Pass.sr_outcome with
    | Pass.Reordered applied -> (
      let seq = sr.Pass.sr_seq in
      match
        ( Mir.Program.find_func_opt before seq.Detect.func_name,
          Mir.Program.find_func_opt after seq.Detect.func_name )
      with
      | Some fb, Some fa -> (
        let edges =
          Verify.live_leaf_edges ~fn_before:fb ~fn_after:fa
            ~var:seq.Detect.var ~entry:applied.Reorder.Apply.replica_entry
        in
        match List.rev edges with
        | [] -> None
        | (chain_label, dir, succ) :: _ -> (
          match Mir.Func.find_block_opt fa chain_label with
          | None -> None
          | Some b -> (
            match b.Mir.Block.term.kind with
            | Mir.Block.Br (cond, taken, fall) ->
              let excluded =
                succ
                :: Verify.resolve fa succ
                :: seq.Detect.default_target
                :: List.map
                     (fun (it : Detect.item) -> it.Detect.target)
                     seq.Detect.items
              in
              let wrong_label =
                match
                  List.find_opt
                    (fun (bb : Mir.Block.t) ->
                      (match bb.Mir.Block.term.kind with
                      | Mir.Block.Ret _ -> true
                      | _ -> false)
                      && not (List.mem bb.Mir.Block.label excluded))
                    fb.Mir.Func.blocks
                with
                | Some bb -> bb.Mir.Block.label
                | None ->
                  (* every returning block is a target: splice in one
                     returning a value no original block returns *)
                  let sentinel =
                    1
                    + List.fold_left
                        (fun acc (bb : Mir.Block.t) ->
                          match bb.Mir.Block.term.kind with
                          | Mir.Block.Ret (Some (Mir.Operand.Imm k)) ->
                            max acc k
                          | _ -> acc)
                        0 fb.Mir.Func.blocks
                  in
                  let label = Mir.Func.fresh_label fa in
                  Mir.Func.add_block fa
                    (Mir.Block.make ~label []
                       (Mir.Block.Ret (Some (Mir.Operand.Imm sentinel))));
                  label
              in
              let kind =
                match dir with
                | `Taken -> Mir.Block.Br (cond, wrong_label, fall)
                | `Fall -> Mir.Block.Br (cond, taken, wrong_label)
              in
              b.Mir.Block.term <- Mir.Block.term kind;
              Some (seq.Detect.func_name, List.length fb.Mir.Func.blocks)
            | _ -> None)))
      | _ -> None)
    | _ -> None
  in
  List.find_map try_seq report.Pass.seq_reports

(* ------------------------------------------------------------------ *)
(* Differential execution                                               *)
(* ------------------------------------------------------------------ *)

type execution = {
  x_result : (Sim.Machine.result, string) result;  (* Error = trap message *)
  x_branches : (int * bool) list;
  x_blocks : (string * string) list;
}

let capture backend prog ~input =
  let branches = ref [] in
  let blocks = ref [] in
  let sink =
    Sim.Predictor.Sink_fun
      (fun ~site ~taken -> branches := (site, taken) :: !branches)
  in
  let on_block ~func ~label = blocks := (func, label) :: !blocks in
  let result =
    try Ok (Sim.Machine.run ~backend ~sink ~on_block prog ~input)
    with Sim.Machine.Trap m -> Error m
  in
  { x_result = result; x_branches = List.rev !branches; x_blocks = List.rev !blocks }

(* all requested backends must agree on everything observable *)
let cross_backend_errors ~what backends prog ~input =
  match backends with
  | [] | [ _ ] -> ([], [])
  | first :: rest ->
    let base = capture first prog ~input in
    let errors = ref [] in
    List.iter
      (fun b ->
        let r = capture b prog ~input in
        let clash field =
          errors :=
            !errors
            @ [
                Printf.sprintf "%s: %s disagrees with %s on %s" what
                  (Sim.Machine.backend_name b)
                  (Sim.Machine.backend_name first)
                  field;
              ]
        in
        (match (base.x_result, r.x_result) with
        | Ok a, Ok c ->
          if a.Sim.Machine.output <> c.Sim.Machine.output then clash "output";
          if a.Sim.Machine.exit_code <> c.Sim.Machine.exit_code then
            clash "exit code";
          if a.Sim.Machine.counters <> c.Sim.Machine.counters then
            clash "counters"
        | Error a, Error c -> if a <> c then clash "trap message"
        | Ok _, Error _ | Error _, Ok _ -> clash "trap behaviour");
        if base.x_branches <> r.x_branches then clash "branch events";
        if base.x_blocks <> r.x_blocks then clash "block trace")
      rest;
    ([ base ], !errors)

let differential_errors backends ~orig ~reord ~input =
  let run1 prog what =
    match cross_backend_errors ~what backends prog ~input with
    | [ base ], errs -> (Some base, errs)
    | _, errs -> (
      match backends with
      | [] -> (None, errs)
      | b :: _ -> (Some (capture b prog ~input), errs))
  in
  let o, errs_o = run1 orig "original" in
  let r, errs_r = run1 reord "reordered" in
  let errs_pair =
    match (o, r) with
    | Some o, Some r -> (
      match (o.x_result, r.x_result) with
      | Ok a, Ok b ->
        (if a.Sim.Machine.output <> b.Sim.Machine.output then
           [
             Printf.sprintf "reordered output %S differs from original %S"
               b.Sim.Machine.output a.Sim.Machine.output;
           ]
         else [])
        @
        if a.Sim.Machine.exit_code <> b.Sim.Machine.exit_code then
          [ "reordered exit code differs from original" ]
        else []
      | Error a, Error b ->
        if a <> b then [ "reordered trap differs from original" ] else []
      | Ok _, Error m ->
        [ Printf.sprintf "reordered traps (%s), original does not" m ]
      | Error m, Ok _ ->
        [ Printf.sprintf "original traps (%s), reordered does not" m ])
    | _ -> []
  in
  errs_o @ errs_r @ errs_pair

(* ------------------------------------------------------------------ *)
(* Lint cross-check                                                     *)
(* ------------------------------------------------------------------ *)

(* The lint diagnostics claim to be {e proved} from the interval facts,
   so no execution may contradict them: a block lint calls statically
   unreachable must never appear in a reference-interpreter block trace,
   an always-taken branch must never be observed falling through (and
   symmetrically), and a subsumed arm's test must never fire.  Run on
   the untransformed program over both fuzz inputs; any contradiction is
   a lint false positive and fails the case. *)
let lint_cross_errors prog ~inputs =
  let diags = Analysis.Lint.check_program prog in
  if diags = [] then ([], 0)
  else begin
    let visited = Hashtbl.create 64 in
    let outcomes =
      Sim.Machine.branch_counts ~config:Sim.Machine.default_config
        ~on_block:(fun ~func ~label -> Hashtbl.replace visited (func, label) ())
        prog ~inputs
    in
    let errors =
      List.filter_map
        (fun (d : Analysis.Lint.diag) ->
          let key = (d.Analysis.Lint.func, d.Analysis.Lint.label) in
          let taken, fell =
            Option.value ~default:(0, 0) (Hashtbl.find_opt outcomes key)
          in
          let contradiction what =
            Some
              (Format.asprintf
                 "lint false positive: %a, but a reference run %s"
                 Analysis.Lint.pp_diag d what)
          in
          match d.Analysis.Lint.kind with
          | Analysis.Lint.Unreachable_block ->
            if Hashtbl.mem visited key then contradiction "entered the block"
            else None
          | Analysis.Lint.Branch_always_taken ->
            if fell > 0 then contradiction "fell through the branch" else None
          | Analysis.Lint.Branch_never_taken | Analysis.Lint.Subsumed_arm ->
            if taken > 0 then contradiction "took the branch" else None
          | Analysis.Lint.Overlapping_arms | Analysis.Lint.Not_reorderable
          | Analysis.Lint.Prediction_diverges ->
            None (* not a trace-refutable verdict *))
        diags
    in
    (errors, List.length diags)
  end

(* ------------------------------------------------------------------ *)
(* Case outcomes                                                        *)
(* ------------------------------------------------------------------ *)

type case_out = {
  co_errors : string list;
  co_reordered : int;
  co_coalesced : int;
  co_unchanged : int;
  co_pieces : int;
  co_injected : bool;
  co_caught : bool;
  co_blocks : int option;  (* inject mode: enclosing function size *)
  co_lint_diags : int;
}

let count_outcomes (report : Pass.report) =
  List.fold_left
    (fun (r, c, u) (sr : Pass.seq_report) ->
      match sr.Pass.sr_outcome with
      | Pass.Reordered _ -> (r + 1, c, u)
      | Pass.Coalesced _ -> (r, c + 1, u)
      | Pass.Unchanged _ -> (r, c, u + 1))
    (0, 0, 0) report.Pass.seq_reports

let empty_outcome =
  { co_errors = []; co_reordered = 0; co_coalesced = 0; co_unchanged = 0;
    co_pieces = 0; co_injected = false; co_caught = false; co_blocks = None;
    co_lint_diags = 0 }

(* a failure anywhere in a case is a finding, not a crash of the run *)
let contained f =
  try f () with
  | Failure m -> { empty_outcome with co_errors = [ "exception: " ^ m ] }
  | Sim.Machine.Trap m ->
    { empty_outcome with co_errors = [ "trap during training: " ^ m ] }

(* the tail every case shares once its program is transformed: certify,
   tally, and — unless [verdict] settles the outcome from the
   certification alone — the lint cross-check, finalizing both versions
   exactly like the pipeline, validation, and the backend race *)
let check_transformed ?(verdict = fun _ _ -> None) ~backends
    ~train ~test (base, reord, report) =
  let summary = Verify.certify_report ~before:base ~after:reord report in
  let reo, coa, unc = count_outcomes report in
  let pieces =
    List.fold_left
      (fun acc r -> acc + r.Verify.v_pieces)
      0 summary.Verify.seq_results
  in
  let out =
    { empty_outcome with co_reordered = reo; co_coalesced = coa;
                         co_unchanged = unc; co_pieces = pieces }
  in
  match verdict summary out with
  | Some out -> out
  | None ->
    if not (Verify.ok summary) then
      { out with co_errors = Verify.all_errors summary }
    else begin
      let lint_errors, lint_diags =
        lint_cross_errors base ~inputs:[ train; test ]
      in
      let orig = Mir.Clone.program base in
      ignore (Mopt.Cleanup.finalize orig);
      ignore (Mopt.Cleanup.finalize reord);
      Mir.Validate.check orig;
      Mir.Validate.check reord;
      let errors = differential_errors backends ~orig ~reord ~input:test in
      { out with co_errors = lint_errors @ errors; co_lint_diags = lint_diags }
    end

let run_case ?profile ~backends ~inject ~case spec =
  contained (fun () ->
      let ((base, reord, report) as transformed) =
        transform
          ?coalesce_machine:(coalesce_machine_for case)
          ?profile ~facts:(case_facts case) spec
      in
      (* inject mode judges the verifier, not the program: a wrong
         default planted before certification must be caught, and a case
         with nothing reordered has nowhere to plant one *)
      let injected =
        if inject then inject_wrong_default ~before:base ~after:reord report
        else None
      in
      let verdict summary out =
        match injected with
        | None -> if inject then Some out else None
        | Some (_fname, blocks) ->
          let out = { out with co_injected = true } in
          if Verify.ok summary then
            Some
              {
                out with
                co_errors =
                  [ "verifier accepted a program with an injected wrong \
                     default target" ];
              }
          else Some { out with co_caught = true; co_blocks = Some blocks }
      in
      check_transformed ~verdict ~backends ~train:spec.Gen.sp_train
        ~test:spec.Gen.sp_test transformed)

let spec_of_case ~seed ~case = Gen.spec_of_seed ((seed * 1_000_003) + case)

let default_backends : Sim.Machine.backend list = [ `Reference; `Compiled ]

(* native code generation costs an out-of-process compile per fresh
   program, far too slow for a fuzz loop's default budget; opt in via
   [~backends:(all_backends ())] (a no-op on hosts without the
   toolchain) *)
let all_backends () : Sim.Machine.backend list =
  if Sim.Native.available () then default_backends @ [ `Native ]
  else default_backends

(* ------------------------------------------------------------------ *)
(* Program-level replay (corpus repros)                                 *)
(* ------------------------------------------------------------------ *)

(* The same stages as [run_case], but starting from a parsed program
   instead of a generated spec — what [bromc bench corpus] feeds saved
   [.mir] repros through.  The program may still contain [Switch]
   terminators; it is cloned first, so the caller's copy survives. *)
let run_program ?(backends = default_backends) ?(facts = true)
    ?(coalesce = false) ?profile ~heuristic ~train ~test prog =
  contained (fun () ->
      let built = Mir.Clone.program prog in
      Mir.Validate.check ~allow_switch:true built;
      Mopt.Switch_lower.lower_program heuristic built;
      Mopt.Cleanup.run built;
      Mir.Validate.check built;
      check_transformed ~backends ~train ~test
        (transform_built
           ?coalesce_machine:
             (if coalesce then Some Sim.Cycle_model.sparc_ipc else None)
           ?profile ~facts ~train built))

(* ------------------------------------------------------------------ *)
(* The driver loop                                                      *)
(* ------------------------------------------------------------------ *)

let form_name = function
  | Gen.F_eq _ -> "eq"
  | Gen.F_ne _ -> "ne"
  | Gen.F_le _ -> "le"
  | Gen.F_ge _ -> "ge"
  | Gen.F_between _ -> "between"

let run ?(backends = default_backends) ?(inject = false) ?(log = ignore)
    ?profile ~cases ~seed () =
  let form_tally = Hashtbl.create 8 in
  let tally spec =
    List.iter
      (fun f ->
        let k = form_name f in
        Hashtbl.replace form_tally k
          (1 + Option.value ~default:0 (Hashtbl.find_opt form_tally k)))
      (Gen.forms spec)
  in
  let failures = ref [] in
  let reordered = ref 0
  and coalesced = ref 0
  and unchanged = ref 0
  and pieces = ref 0
  and injected = ref 0
  and caught = ref 0
  and lint_diags = ref 0
  and best_blocks = ref None in
  let process case =
    let spec = spec_of_case ~seed ~case in
    tally spec;
    let out = run_case ?profile ~backends ~inject ~case spec in
    reordered := !reordered + out.co_reordered;
    coalesced := !coalesced + out.co_coalesced;
    unchanged := !unchanged + out.co_unchanged;
    pieces := !pieces + out.co_pieces;
    lint_diags := !lint_diags + out.co_lint_diags;
    if out.co_injected then incr injected;
    if out.co_caught then begin
      incr caught;
      (* shrink the caught case once, for the smallest demonstration *)
      if !best_blocks = None then begin
        let keep s =
          (run_case ?profile ~backends ~inject:true ~case s).co_caught
        in
        let shrunk = Gen.shrink_spec ~keep spec in
        let blocks =
          (run_case ?profile ~backends ~inject:true ~case shrunk)
            .co_blocks
        in
        best_blocks := blocks
      end
    end;
    if out.co_errors <> [] then begin
      let keep s =
        (run_case ?profile ~backends ~inject ~case s).co_errors <> []
      in
      let shrunk = Gen.shrink_spec ~keep spec in
      let f =
        {
          f_case = case;
          f_spec = spec;
          f_shrunk = shrunk;
          f_errors = out.co_errors;
        }
      in
      failures := !failures @ [ f ];
      log (Format.asprintf "%a" pp_failure f)
    end
  in
  for case = 0 to cases - 1 do
    process case;
    if (case + 1) mod 100 = 0 then
      log
        (Printf.sprintf "fuzz: %d/%d cases, %d sequences reordered, %d failures"
           (case + 1) cases !reordered
           (List.length !failures))
  done;
  {
    st_cases = cases;
    st_reordered = !reordered;
    st_coalesced = !coalesced;
    st_unchanged = !unchanged;
    st_pieces = !pieces;
    st_injected = !injected;
    st_caught = !caught;
    st_counterexample_blocks = !best_blocks;
    st_lint_diags = !lint_diags;
    st_form_counts =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) form_tally []);
    st_failures = !failures;
  }
