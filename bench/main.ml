(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 9).

     Table 3      the benchmark programs
     Table 4      dynamic instruction/branch changes per heuristic set
     Table 5      (0,2) 2048-entry branch prediction measurements
     Table 6      predictor sweep ((0,1),(0,2) x 32..2048 entries)
     Table 7      execution time (cycle model)
     Table 8      static measurements
     Figures 11-13  sequence length distributions per heuristic set

   Usage:
     dune exec bench/main.exe                 # everything but ablations
     dune exec bench/main.exe -- --fast       # smaller inputs
     dune exec bench/main.exe -- table4 figs  # selected sections
     dune exec bench/main.exe -- backends     # engine cross-check
     dune exec bench/main.exe -- detection    # syntactic vs facts walk
     dune exec bench/main.exe -- ablations    # design-choice ablations
     dune exec bench/main.exe -- static       # static vs trained profile
     dune exec bench/main.exe -- -j 8         # domain-pool width
     dune exec bench/main.exe -- --verify     # translation-validate every
                                              # matrix pipeline (lib/check)

   The 17-workload matrix of each heuristic set is fanned out across
   OCaml 5 domains (Driver.Pool) under the guarded runner: a workload
   that crashes is contained, its section cells print `-', and the
   partial results stand.  The `backends' section runs both finalized
   versions of every set-I program through the closure-compiled and
   (when available) native engines and fails unless each agrees with
   the reference.

   Every section prints text only, and its stdout is a function of the
   code and the inputs alone: no wall clock, and the same bytes at any
   -j.  CI diffs the paper's tables, the fast Tables 5-6 and the static
   section against bench/golden/; the speed of the system itself is
   measured by bench/perf.

   Shapes, not absolute numbers, are the reproduction target; see
   EXPERIMENTS.md for the paper-vs-measured discussion. *)

let fast = ref false
let sections = ref []
let jobs_flag = ref None

(* --verify: run the translation validator inside every matrix pipeline
   (Pipeline.run fails the job on any rejection), so a bench run
   self-certifies the numbers it reports *)
let verify = ref false

(* ------------------------------------------------------------------ *)
(* Running the pipeline over the workload matrix                       *)
(* ------------------------------------------------------------------ *)

type row = {
  workload : Workloads.Spec.t;
  result : Driver.Pipeline.result;
}

let truncate_input s = if !fast then String.sub s 0 (min 6000 (String.length s)) else s

let domains () =
  match !jobs_flag with Some n -> n | None -> Driver.Pool.default_domains ()

(* jobs are built in the parent so the lazy inputs are forced exactly
   once, before any domain fan-out *)
let jobs_for ?(workloads = Workloads.Registry.all) config =
  List.map
    (fun (w : Workloads.Spec.t) ->
      Driver.Pipeline.job ~config ~name:w.Workloads.Spec.name
        ~source:w.Workloads.Spec.source
        ~training_input:
          (truncate_input (Lazy.force w.Workloads.Spec.training_input))
        ~test_input:(truncate_input (Lazy.force w.Workloads.Spec.test_input))
        ())
    workloads

(* every table's jobs run guarded, degrading down the backend ladder *)
let run_guarded jobs =
  let policy = { Driver.Guard.default with Driver.Guard.degrade = true } in
  Driver.Pipeline.run_jobs_guarded ~domains:(domains ()) ~policy jobs

(* a failed job is contained, not fatal: warn here, and the caller
   prints its cells as `-' *)
let result_or_warn ~what (o : Driver.Pipeline.job_outcome) =
  match o.Driver.Pipeline.o_outcome with
  | Driver.Pool.Ok r -> Some r
  | out ->
    Printf.eprintf
      "[bench] WARNING: workload %s (%s) failed (%s: %s); its cells will be \
       missing\n%!"
      o.Driver.Pipeline.o_name what
      (Driver.Pool.outcome_status out)
      (Driver.Pool.outcome_message out);
    None

(* the 17 workloads under [config] (and --verify), each paired with its
   result, [None] for a contained failure *)
let run_workloads ~what config =
  Printf.eprintf
    "[bench] running the 17 workloads under %s on %d domain(s)...\n%!" what
    (domains ());
  let config = { config with Driver.Config.verify = !verify } in
  List.map2
    (fun w o -> (w, result_or_warn ~what o))
    Workloads.Registry.all
    (run_guarded (jobs_for config))

(* per heuristic set: the rows, run once and shared by every section;
   failed workloads are dropped, and the partial results stand *)
let matrix : (string, row list) Hashtbl.t = Hashtbl.create 4

let run_matrix hs =
  List.filter_map
    (fun (workload, r) -> Option.map (fun result -> { workload; result }) r)
    (run_workloads
       ~what:("set " ^ hs.Mopt.Switch_lower.hs_name)
       { Driver.Config.default with Driver.Config.heuristic = hs })

let rows_for hs =
  match Hashtbl.find_opt matrix hs.Mopt.Switch_lower.hs_name with
  | Some rows -> rows
  | None ->
    let rows = run_matrix hs in
    Hashtbl.replace matrix hs.Mopt.Switch_lower.hs_name rows;
    rows

let counters_of (v : Driver.Pipeline.version) = v.Driver.Pipeline.v_counters
let orig r = r.result.Driver.Pipeline.r_original
let reord r = r.result.Driver.Pipeline.r_reordered
let pct = Driver.Pipeline.pct

let line width = print_endline (String.make width '-')

let section title =
  Printf.printf "\n\n===== %s =====\n\n" title

let average xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: Test Programs";
  Printf.printf "%-8s %s\n" "Program" "Description";
  line 60;
  List.iter
    (fun (w : Workloads.Spec.t) ->
      Printf.printf "%-8s %s\n" w.Workloads.Spec.name w.Workloads.Spec.description)
    Workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)
(* ------------------------------------------------------------------ *)

let table4 () =
  section "Table 4: Dynamic Frequency Measurements";
  List.iter
    (fun hs ->
      let rows = rows_for hs in
      Printf.printf "\n--- heuristic set %s ---\n" hs.Mopt.Switch_lower.hs_name;
      Printf.printf "%-8s %12s %10s %10s\n" "Program" "Orig Insts"
        "Insts" "Branches";
      line 46;
      let d_insts = ref [] and d_branches = ref [] and o_insts = ref [] in
      List.iter
        (fun r ->
          let o = counters_of (orig r) and n = counters_of (reord r) in
          let di = pct o.Sim.Counters.insns n.Sim.Counters.insns in
          let db = pct o.Sim.Counters.cond_branches n.Sim.Counters.cond_branches in
          d_insts := di :: !d_insts;
          d_branches := db :: !d_branches;
          o_insts := float_of_int o.Sim.Counters.insns :: !o_insts;
          Printf.printf "%-8s %12d %+9.2f%% %+9.2f%%\n" r.workload.Workloads.Spec.name
            o.Sim.Counters.insns di db)
        rows;
      line 46;
      Printf.printf "%-8s %12.0f %+9.2f%% %+9.2f%%\n" "average"
        (average !o_insts) (average !d_insts) (average !d_branches))
    Mopt.Switch_lower.all_sets

(* ------------------------------------------------------------------ *)
(* Tables 5 and 6: branch prediction                                   *)
(* ------------------------------------------------------------------ *)

let mispred_of v key = List.assoc key v.Driver.Pipeline.v_mispredicts

(* instructions-saved to mispredictions-added ratio, N/A when
   mispredictions decreased (paper Table 5's last column) *)
let ratio r key =
  let o = orig r and n = reord r in
  let dm = mispred_of n key - mispred_of o key in
  if dm <= 0 then None
  else
    Some
      (float_of_int
         ((counters_of o).Sim.Counters.insns - (counters_of n).Sim.Counters.insns)
      /. float_of_int dm)

let table5 () =
  section "Table 5: Branch Prediction Measurements ((0,2), 2048 entries, set I)";
  let key = (0, 2, 2048) in
  let rows = rows_for Mopt.Switch_lower.set_i in
  Printf.printf "%-8s %12s %12s %12s\n" "Program" "Orig Mispred" "Change"
    "Inst Ratio";
  line 50;
  let deltas = ref [] and ratios = ref [] in
  List.iter
    (fun r ->
      let o = mispred_of (orig r) key in
      let d = pct o (mispred_of (reord r) key) in
      deltas := d :: !deltas;
      let ratio_str =
        match ratio r key with
        | Some x ->
          ratios := x :: !ratios;
          Printf.sprintf "%.2f" x
        | None -> "N/A"
      in
      Printf.printf "%-8s %12d %+11.2f%% %12s\n" r.workload.Workloads.Spec.name o d
        ratio_str)
    rows;
  line 50;
  Printf.printf "%-8s %12s %+11.2f%% %12.2f\n" "average" "" (average !deltas)
    (average !ratios)

let table6 () =
  section "Table 6: Branch Prediction Across Predictors (set I)";
  Printf.printf "%8s | %21s | %21s\n" "" "(0,1) predictor" "(0,2) predictor";
  Printf.printf "%8s | %10s %10s | %10s %10s\n" "Entries" "Mispred"
    "Inst Ratio" "Mispred" "Inst Ratio";
  line 58;
  let rows = rows_for Mopt.Switch_lower.set_i in
  let summarize key =
    let deltas =
      List.map (fun r -> pct (mispred_of (orig r) key) (mispred_of (reord r) key)) rows
    in
    let ratios = List.filter_map (fun r -> ratio r key) rows in
    (average deltas, average ratios)
  in
  let avg1 = ref [] and avg2 = ref [] in
  List.iter
    (fun entries ->
      let d1, r1 = summarize (0, 1, entries) in
      let d2, r2 = summarize (0, 2, entries) in
      avg1 := (d1, r1) :: !avg1;
      avg2 := (d2, r2) :: !avg2;
      Printf.printf "%8d | %+9.2f%% %10.2f | %+9.2f%% %10.2f\n" entries d1 r1 d2 r2)
    [ 32; 64; 128; 256; 512; 1024; 2048 ];
  line 58;
  let avg l f = average (List.map f l) in
  Printf.printf "%8s | %+9.2f%% %10.2f | %+9.2f%% %10.2f\n" "average"
    (avg !avg1 fst) (avg !avg1 snd) (avg !avg2 fst) (avg !avg2 snd)

(* ------------------------------------------------------------------ *)
(* Table 7: execution time                                             *)
(* ------------------------------------------------------------------ *)

let table7 () =
  section "Table 7: Execution Time (simulated cycles)";
  (* the paper pairs machines with translation heuristics: the IPC and
     the SPARC 20 used set I, the Ultra 1 used set II *)
  let pairs =
    [ (Sim.Cycle_model.sparc_ipc, Mopt.Switch_lower.set_i);
      (Sim.Cycle_model.sparc_20, Mopt.Switch_lower.set_i);
      (Sim.Cycle_model.sparc_ultra1, Mopt.Switch_lower.set_ii) ]
  in
  Printf.printf "%-8s" "Program";
  List.iter
    (fun ((m : Sim.Cycle_model.params), hs) ->
      Printf.printf " %19s" (Printf.sprintf "%s (set %s)" m.Sim.Cycle_model.model_name
                               hs.Mopt.Switch_lower.hs_name))
    pairs;
  print_newline ();
  line 70;
  let averages = Array.make (List.length pairs) [] in
  List.iter
    (fun (w : Workloads.Spec.t) ->
      Printf.printf "%-8s" w.Workloads.Spec.name;
      List.iteri
        (fun i ((m : Sim.Cycle_model.params), hs) ->
          let rows = rows_for hs in
          match
            List.find_opt
              (fun row ->
                String.equal row.workload.Workloads.Spec.name
                  w.Workloads.Spec.name)
              rows
          with
          | None ->
            (* the workload's pipeline failed under this set; its cell
               is marked missing rather than aborting the table *)
            Printf.printf " %19s" "-"
          | Some r ->
            let model = m.Sim.Cycle_model.model_name in
            let oc = List.assoc model (orig r).Driver.Pipeline.v_cycles in
            let nc = List.assoc model (reord r).Driver.Pipeline.v_cycles in
            let d = pct oc nc in
            averages.(i) <- d :: averages.(i);
            Printf.printf " %+18.2f%%" d)
        pairs;
      print_newline ())
    Workloads.Registry.all;
  line 70;
  Printf.printf "%-8s" "average";
  Array.iter (fun ds -> Printf.printf " %+18.2f%%" (average ds)) averages;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 8: static measurements                                        *)
(* ------------------------------------------------------------------ *)

let table8 () =
  section "Table 8: Static Measurements";
  List.iter
    (fun hs ->
      let rows = rows_for hs in
      Printf.printf "\n--- heuristic set %s ---\n" hs.Mopt.Switch_lower.hs_name;
      Printf.printf "%-8s %8s %10s %10s %10s %10s\n" "Program" "Insts"
        "Total Seqs" "Reordered" "Avg Before" "Avg After";
      line 62;
      let all_stats = ref None in
      let d_static = ref [] in
      List.iter
        (fun r ->
          let s = r.result.Driver.Pipeline.r_stats in
          let ds =
            pct (orig r).Driver.Pipeline.v_static_insns
              (reord r).Driver.Pipeline.v_static_insns
          in
          d_static := ds :: !d_static;
          all_stats :=
            Some
              (match !all_stats with
              | None -> s
              | Some acc -> Reorder.Stats.merge acc s);
          Printf.printf "%-8s %+7.2f%% %10d %9.2f%% %10.2f %10.2f\n"
            r.workload.Workloads.Spec.name ds s.Reorder.Stats.total_seqs
            (if s.Reorder.Stats.total_seqs = 0 then 0.0
             else
               100.0
               *. float_of_int s.Reorder.Stats.reordered_seqs
               /. float_of_int s.Reorder.Stats.total_seqs)
            s.Reorder.Stats.avg_len_before s.Reorder.Stats.avg_len_after)
        rows;
      line 62;
      match !all_stats with
      | Some s ->
        Printf.printf "%-8s %+7.2f%% %10d %9.2f%% %10.2f %10.2f\n" "total"
          (average !d_static) s.Reorder.Stats.total_seqs
          (100.0
          *. float_of_int s.Reorder.Stats.reordered_seqs
          /. float_of_int (max 1 s.Reorder.Stats.total_seqs))
          s.Reorder.Stats.avg_len_before s.Reorder.Stats.avg_len_after
      | None -> ())
    Mopt.Switch_lower.all_sets

(* ------------------------------------------------------------------ *)
(* Figures 11-13                                                       *)
(* ------------------------------------------------------------------ *)

let histogram title lengths =
  Printf.printf "%s (avg %.2f)\n" title
    (if lengths = [] then 0.0
     else
       float_of_int (List.fold_left ( + ) 0 lengths)
       /. float_of_int (List.length lengths));
  let h = Reorder.Stats.histogram lengths in
  let maxc = List.fold_left (fun m (_, c) -> max m c) 1 h in
  List.iter
    (fun (len, count) ->
      let bar = String.make (max 1 (count * 40 / maxc)) '#' in
      Printf.printf "  %3d | %-40s %d\n" len bar count)
    h

let figures () =
  List.iter2
    (fun hs fig ->
      section
        (Printf.sprintf "Figure %d: Sequence Lengths for Heuristic Set %s" fig
           hs.Mopt.Switch_lower.hs_name);
      let rows = rows_for hs in
      let stats =
        List.fold_left
          (fun acc r -> Reorder.Stats.merge acc r.result.Driver.Pipeline.r_stats)
          (Reorder.Stats.of_report { Reorder.Pass.seq_reports = [] })
          rows
      in
      histogram "Original sequence length (branches)"
        stats.Reorder.Stats.orig_branch_lengths;
      print_newline ();
      histogram "Reordered sequence length (branches)"
        stats.Reorder.Stats.final_branch_lengths)
    Mopt.Switch_lower.all_sets [ 11; 12; 13 ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablations (set I): design choices from DESIGN.md";
  let variants =
    [
      ("full transformation", Driver.Config.default);
      ( "no redundant-cmp elimination",
        {
          Driver.Config.default with
          Driver.Config.apply_options =
            { Reorder.Apply.default_options with Reorder.Apply.improve_cmp = false };
        } );
      ( "no Form-4 bound ordering",
        {
          Driver.Config.default with
          Driver.Config.apply_options =
            { Reorder.Apply.default_options with Reorder.Apply.improve_form4 = false };
        } );
      ( "no tail duplication",
        {
          Driver.Config.default with
          Driver.Config.apply_options =
            { Reorder.Apply.default_options with Reorder.Apply.tail_dup_limit = 0 };
        } );
      ( "keep original default target",
        { Driver.Config.default with Driver.Config.keep_original_default = true } );
      ( "exhaustive selection",
        { Driver.Config.default with Driver.Config.selector = `Exhaustive } );
      ( "with common-successor runs (Sec. 10)",
        { Driver.Config.default with Driver.Config.common_succ = true } );
      ( "reorder-vs-indirect decision (IPC)",
        {
          Driver.Config.default with
          Driver.Config.coalesce_machine = Some Sim.Cycle_model.sparc_ipc;
        } );
      ( "no fill-from-successor delay slots",
        { Driver.Config.default with Driver.Config.delay_fill_from_target = false } );
      ( "with profile-guided layout",
        { Driver.Config.default with Driver.Config.profile_layout = true } );
      ( "reorder-vs-indirect decision (Ultra 1)",
        {
          Driver.Config.default with
          Driver.Config.coalesce_machine = Some Sim.Cycle_model.sparc_ultra1;
        } );
    ]
  in
  let chosen = [ "wc"; "sort"; "lex"; "cpp"; "grep" ] in
  let workloads = List.map Workloads.Registry.find chosen in
  Printf.printf "%-38s" "Variant";
  List.iter (Printf.printf " %9s") chosen;
  print_newline ();
  line 88;
  List.iter
    (fun (label, config) ->
      Printf.printf "%-38s%!" label;
      List.iter
        (fun o ->
          match result_or_warn ~what:label o with
          | Some r ->
            let d =
              pct
                r.Driver.Pipeline.r_original.Driver.Pipeline.v_counters
                  .Sim.Counters.insns
                r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_counters
                  .Sim.Counters.insns
            in
            Printf.printf " %+8.2f%%" d
          | None -> Printf.printf " %9s" "-")
        (run_guarded (jobs_for ~workloads config));
      print_newline ())
    variants

(* ------------------------------------------------------------------ *)
(* Detection coverage: syntactic walk vs interval-facts walk           *)
(* ------------------------------------------------------------------ *)

(* (workload, heuristic set) -> (syntactic seqs, syntactic tests,
   facts seqs, facts tests) *)
let detect_counts (w : Workloads.Spec.t) hs =
  let config = { Driver.Config.default with Driver.Config.heuristic = hs } in
  let prog = Driver.Pipeline.compile_base config w.Workloads.Spec.source in
  let count facts =
    let seqs = Reorder.Detect.find_program ~facts prog in
    ( List.length seqs,
      List.fold_left (fun a s -> a + Reorder.Detect.items_count s) 0 seqs )
  in
  let ss, st = count false and fs, ft = count true in
  (ss, st, fs, ft)

let detection () =
  section "Detection coverage: syntactic vs interval-facts walk";
  List.iter
    (fun hs ->
      Printf.printf "set %s\n" hs.Mopt.Switch_lower.hs_name;
      Printf.printf "  %-8s %14s %14s %8s\n" "program" "syntactic" "facts"
        "extra";
      List.iter
        (fun w ->
          let ss, st, fs, ft = detect_counts w hs in
          Printf.printf "  %-8s %6d seq %3d t %6d seq %3d t %+5d seq %+4d t\n"
            w.Workloads.Spec.name ss st fs ft (fs - ss) (ft - st))
        Workloads.Registry.all)
    [ Mopt.Switch_lower.set_i; Mopt.Switch_lower.set_ii;
      Mopt.Switch_lower.set_iii ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Execution backends: compiled and native vs the reference            *)
(* ------------------------------------------------------------------ *)

(* The engine differential on full inputs (unless --fast): both
   finalized versions of every set-I workload run through the suite's
   measure stage (full predictor bank attached) once per engine, and
   every engine must agree with the reference on every observable —
   counters, each predictor's mispredicts, output, exit code — or the
   section fails naming the program.  The tests cut their inputs to a
   few thousand bytes, so this is the only full-size differential.
   Engine speed is bench/perf's to measure. *)
let backends_section () =
  section "Execution backends: compiled and native vs the reference (set I)";
  let rows = rows_for Mopt.Switch_lower.set_i in
  let programs =
    List.concat_map
      (fun r ->
        let input =
          truncate_input (Lazy.force r.workload.Workloads.Spec.test_input)
        in
        [ (r.workload.Workloads.Spec.name ^ "/original",
           (orig r).Driver.Pipeline.v_program, input);
          (r.workload.Workloads.Spec.name ^ "/reordered",
           (reord r).Driver.Pipeline.v_program, input) ])
      rows
  in
  if not (Sim.Native.available ()) then
    Printf.eprintf
      "[bench] native backend unavailable on this host; checking the \
       compiled engine only\n%!";
  let sweep backend =
    let config = { Driver.Config.default with Driver.Config.backend } in
    Printf.eprintf "[bench] measuring %d programs under the %s backend...\n%!"
      (List.length programs) (Sim.Machine.backend_name backend);
    List.map
      (fun (_, prog, input) -> Driver.Pipeline.measure config prog ~input)
      programs
  in
  let oracle = sweep `Reference in
  List.iter
    (fun backend ->
      List.iter2
        (fun (name, _, _) ((v : Driver.Pipeline.version), o) ->
          if
            v.Driver.Pipeline.v_counters <> o.Driver.Pipeline.v_counters
            || v.Driver.Pipeline.v_mispredicts <> o.Driver.Pipeline.v_mispredicts
            || (not
                  (String.equal v.Driver.Pipeline.v_output
                     o.Driver.Pipeline.v_output))
            || v.Driver.Pipeline.v_exit_code <> o.Driver.Pipeline.v_exit_code
          then
            failwith
              (Printf.sprintf "backend %s disagrees with reference on %s"
                 (Sim.Machine.backend_name backend) name))
        programs
        (List.combine (sweep backend) oracle);
      Printf.printf "%-9s agrees with reference on %d programs\n"
        (Sim.Machine.backend_name backend) (List.length programs))
    (`Compiled :: (if Sim.Native.available () then [ `Native ] else []))

(* ------------------------------------------------------------------ *)
(* Static profile: heuristic prediction vs the training run             *)
(* ------------------------------------------------------------------ *)

let branches (v : Driver.Pipeline.version) =
  v.Driver.Pipeline.v_counters.Sim.Counters.cond_branches

(* per workload: (orig branches, reordered branches), [None] for a
   contained failure *)
let profile_branch_rows profile =
  List.map
    (fun ((w : Workloads.Spec.t), r) ->
      ( w.Workloads.Spec.name,
        Option.map
          (fun (r : Driver.Pipeline.result) ->
            (branches r.Driver.Pipeline.r_original,
             branches r.Driver.Pipeline.r_reordered))
          r ))
    (run_workloads
       ~what:("--profile=" ^ Driver.Config.profile_name profile ^ " (set I)")
       {
         Driver.Config.default with
         Driver.Config.heuristic = Mopt.Switch_lower.set_i;
         Driver.Config.profile;
       })

(* the paper-style comparison the static-prediction layer is judged by:
   dynamic conditional-branch reduction with a trained profile, with the
   pure static prediction, and with training backfilled by prediction —
   same workloads, same heuristic set, same pipeline *)
let static_profile_section () =
  section "Static profile: predicted vs trained branch reduction (set I)";
  (* `Trained is exactly the set-I matrix every other section uses *)
  let trained =
    List.map
      (fun r ->
        ( r.workload.Workloads.Spec.name,
          Some (branches (orig r), branches (reord r)) ))
      (rows_for Mopt.Switch_lower.set_i)
  in
  let static_rows = profile_branch_rows `Static in
  let both_rows = profile_branch_rows `Both in
  let find name rows = Option.join (List.assoc_opt name rows) in
  let red = function
    | Some (o, n) when o > 0 -> Some (pct o n)
    | _ -> None
  in
  let cell = function Some r -> Printf.sprintf "%+8.2f%%" r | None -> "       -" in
  Printf.printf "%-8s %10s %10s %10s %14s\n" "Program" "trained" "static"
    "both" "static/trained";
  line 60;
  let at_half = ref 0 and compared = ref 0 in
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let name = w.Workloads.Spec.name in
      let t = red (find name trained)
      and s = red (find name static_rows)
      and b = red (find name both_rows) in
      let ratio =
        match (t, s) with
        | Some t, Some s when t < 0. ->
          incr compared;
          let r = s /. t in
          if r >= 0.5 then incr at_half;
          Some r
        | _ -> None
      in
      Printf.printf "%-8s %s %s %s %14s\n" name (cell t) (cell s) (cell b)
        (match ratio with
        | Some r -> Printf.sprintf "%.2f" r
        | None -> "-"))
    Workloads.Registry.all;
  line 60;
  let agg rows =
    let os, ns =
      List.fold_left
        (fun (os, ns) (_, v) ->
          match v with Some (o, n) -> (os + o, ns + n) | None -> (os, ns))
        (0, 0) rows
    in
    if os > 0 then Some (pct os ns) else None
  in
  Printf.printf "%-8s %s %s %s\n" "overall" (cell (agg trained))
    (cell (agg static_rows)) (cell (agg both_rows));
  Printf.printf
    "\n%d of %d workloads reach >= 50%% of the trained reduction statically\n"
    !at_half !compared

(* ------------------------------------------------------------------ *)

(* every section in print order; [false] marks the ablations, which
   re-run the pipeline many times and so run only when named *)
let all_sections =
  [ ("table3", true, table3);
    ("table4", true, table4);
    ("table5", true, table5);
    ("table6", true, table6);
    ("table7", true, table7);
    ("table8", true, table8);
    ("figs", true, figures);
    ("detection", true, detection);
    ("backends", true, backends_section);
    ("static", true, static_profile_section);
    ("ablations", false, ablations) ]

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--fast" :: rest ->
      fast := true;
      go rest
    | "--verify" :: rest ->
      verify := true;
      go rest
    | ("-j" | "--jobs") :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> jobs_flag := Some n
      | _ ->
        prerr_endline "bench: -j expects a positive integer";
        exit 2);
      go rest
    | s :: _ when String.length s > 0 && s.[0] = '-' ->
      Printf.eprintf "bench: unknown option %s\n" s;
      exit 2
    | s :: rest when List.exists (fun (name, _, _) -> name = s) all_sections ->
      sections := s :: !sections;
      go rest
    | s :: _ ->
      Printf.eprintf "bench: unknown section %s (sections: %s)\n" s
        (String.concat " " (List.map (fun (name, _, _) -> name) all_sections));
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv))

let () =
  parse_args ();
  List.iter
    (fun (name, by_default, run) ->
      if (!sections = [] && by_default) || List.mem name !sections then run ())
    all_sections
