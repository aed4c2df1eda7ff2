(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 9).

     Table 3      the benchmark programs
     Table 4      dynamic instruction/branch changes per heuristic set
     Table 5      (0,2) 2048-entry branch prediction measurements
     Table 6      predictor sweep ((0,1),(0,2) x 32..2048 entries)
     Table 7      execution time (cycle model) + Bechamel wall-clock
     Table 8      static measurements
     Figures 11-13  sequence length distributions per heuristic set

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --fast       # smaller inputs
     dune exec bench/main.exe -- table4 figs  # selected sections
     dune exec bench/main.exe -- backends     # execution-backend race
     dune exec bench/main.exe -- detection    # syntactic vs facts walk
     dune exec bench/main.exe -- ablations    # design-choice ablations
     dune exec bench/main.exe -- static       # static vs trained profile
     dune exec bench/main.exe -- -j 8         # domain-pool width
     dune exec bench/main.exe -- --seq        # sequential harness
     dune exec bench/main.exe -- --verify     # translation-validate every
                                              # matrix pipeline (lib/check)

   The 17-workload matrix of each heuristic set is fanned out across
   OCaml 5 domains (Driver.Pool) under the guarded runner: a workload
   that crashes or times out is contained (with --timeout-ms honoured),
   its section cells print `-', and the partial results stand.  The
   `speedup' section re-runs the set-I matrix sequentially, and the
   `backends' section races the reference, closure-compiled and (when
   available) native execution engines over the suite's measure stage.

   Every section prints text only.  CI diffs the deterministic ones
   against bench/golden/ (the fast Tables 5-6 and the full-size static
   section), ignoring the final wall-clock line; the speed of the system
   itself is measured by bench/perf.

   Shapes, not absolute numbers, are the reproduction target; see
   EXPERIMENTS.md for the paper-vs-measured discussion. *)

let fast = ref false
let sections = ref []
let seq = ref false
let jobs_flag = ref None
let timeout_ms = ref None

(* --verify: run the translation validator inside every matrix pipeline
   (Pipeline.run fails the job on any rejection), so a bench run
   self-certifies the numbers it reports *)
let verify = ref false

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then false
    else if String.sub haystack i n = needle then true
    else go (i + 1)
  in
  n = 0 || go 0

let want name =
  !sections = [] || List.mem name !sections

(* ------------------------------------------------------------------ *)
(* Running the pipeline over the workload matrix                       *)
(* ------------------------------------------------------------------ *)

type row = {
  workload : Workloads.Spec.t;
  result : Driver.Pipeline.result;
}

let truncate_input s = if !fast then String.sub s 0 (min 6000 (String.length s)) else s

let domains () =
  if !seq then 1
  else match !jobs_flag with Some n -> n | None -> Driver.Pool.default_domains ()

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

(* every table's jobs run under the command line's watchdog, degrading
   down the backend ladder *)
let run_guarded ?(domains = domains ()) jobs =
  let policy = { Driver.Guard.timeout_ms = !timeout_ms; degrade = true } in
  Driver.Pipeline.run_jobs_guarded ~domains ~policy jobs

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

(* per heuristic set: rows + the wall clock of the whole matrix *)
let matrix : (string, row list * float) Hashtbl.t = Hashtbl.create 4

let run_matrix hs ~domains =
  if domains = 1 && Domain.recommended_domain_count () > 1 && not !seq then
    Printf.eprintf
      "[bench] WARNING: the domain pool is effectively sequential (1 domain \
       on a machine with %d recommended); wall-clock numbers will not show \
       fan-out\n%!"
      (Domain.recommended_domain_count ());
  let config =
    {
      Driver.Config.default with
      Driver.Config.heuristic = hs;
      Driver.Config.verify = !verify;
    }
  in
  let jobs = jobs_for config in
  Printf.eprintf
    "[bench] running the 17 workloads under heuristic set %s on %d domain(s)...\n%!"
    hs.Mopt.Switch_lower.hs_name domains;
  let t0 = Unix.gettimeofday () in
  let outcomes = run_guarded ~domains jobs in
  let wall = Unix.gettimeofday () -. t0 in
  (* failed workloads are dropped from the rows, and the partial
     results stand *)
  let what = "set " ^ hs.Mopt.Switch_lower.hs_name in
  let rows =
    List.concat
      (List.map2
         (fun w (o : Driver.Pipeline.job_outcome) ->
           match result_or_warn ~what o with
           | Some result -> [ { workload = w; result } ]
           | None -> [])
         Workloads.Registry.all outcomes)
  in
  (rows, wall)

let rows_with_wall hs =
  match Hashtbl.find_opt matrix hs.Mopt.Switch_lower.hs_name with
  | Some rw -> rw
  | None ->
    let rw = run_matrix hs ~domains:(domains ()) in
    Hashtbl.replace matrix hs.Mopt.Switch_lower.hs_name rw;
    rw

let rows_for hs = fst (rows_with_wall hs)

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

(* Bechamel wall-clock companion to Table 7: the simulator's real run
   time is proportional to the dynamic instruction count, so timing the
   simulation of the original vs the reordered binary is this
   reproduction's analogue of the paper's `times()' measurements. *)
let bechamel_table7 () =
  section "Table 7 (companion): Bechamel wall-clock of simulated runs (set I)";
  let rows = rows_for Mopt.Switch_lower.set_i in
  let chosen = [ "wc"; "grep"; "sort"; "lex" ] in
  let tests =
    List.concat_map
      (fun r ->
        if not (List.mem r.workload.Workloads.Spec.name chosen) then []
        else begin
          let input =
            truncate_input (Lazy.force r.workload.Workloads.Spec.test_input)
          in
          let make label prog =
            (* compile once so lowering and closure compilation are
               amortized and the measured quantity is the pure
               simulation loop *)
            let compiled = Sim.Compiled.compile (Sim.Image.build prog) in
            Bechamel.Test.make
              ~name:(r.workload.Workloads.Spec.name ^ "/" ^ label)
              (Bechamel.Staged.stage (fun () ->
                   ignore (Sim.Compiled.exec compiled ~input)))
          in
          [ make "original" (orig r).Driver.Pipeline.v_program;
            make "reordered" (reord r).Driver.Pipeline.v_program ]
        end)
      rows
  in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:50
      ~quota:(Bechamel.Time.second (if !fast then 0.2 else 0.5))
      ~kde:None ()
  in
  let raw =
    Bechamel.Benchmark.all cfg
      [ Bechamel.Toolkit.Instance.monotonic_clock ]
      (Bechamel.Test.make_grouped ~name:"table7" tests)
  in
  let ols =
    Bechamel.Analyze.all
      (Bechamel.Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Bechamel.Toolkit.Instance.monotonic_clock raw
  in
  let time_of name =
    Hashtbl.fold
      (fun key v acc ->
        if contains key name then
          match Bechamel.Analyze.OLS.estimates v with
          | Some (t :: _) -> Some t
          | _ -> acc
        else acc)
      ols None
  in
  Printf.printf "%-8s %15s %15s %10s\n" "Program" "original (ms)"
    "reordered (ms)" "change";
  line 52;
  List.iter
    (fun name ->
      match
        ( time_of (name ^ "/original"),
          time_of (name ^ "/reordered") )
      with
      | Some o, Some n ->
        Printf.printf "%-8s %15.3f %15.3f %+9.2f%%\n" name (o /. 1e6) (n /. 1e6)
          (100.0 *. (n -. o) /. o)
      | _ -> Printf.printf "%-8s (no estimate)\n" name)
    chosen

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
(* Execution backends: reference vs closure-compiled vs native         *)
(* ------------------------------------------------------------------ *)

let runs_per_engine = 3

(* Race the execution engines over the suite's measure stage: both
   finalized versions of every set-I workload, full predictor bank
   attached, exactly what `Pipeline.run's measure stage does.  Each
   engine runs the sweep [runs_per_engine] times and reports the min —
   single-shot walls drifted by several percent between otherwise
   identical runs (1.10x in BENCH_PR2 vs 1.036x in BENCH_PR5), and the
   min is the standard noise-robust estimator for a deterministic
   workload.  The native engine pays code generation in an extra
   untimed first sweep, reported separately (with the artifact store's
   counters after the whole section): steady state is what the "compile
   once, serve many" store delivers to every later process.
   Every backend must agree on every observable — counters,
   mispredicts, output, exit code — or the section aborts. *)
let backends_section () =
  section "Execution backends: suite measure-stage wall clock (set I)";
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
  let engines =
    [ `Reference; `Compiled ]
    @ (if Sim.Native.available () then [ `Native ] else [])
  in
  if not (Sim.Native.available ()) then
    Printf.eprintf
      "[bench] native backend unavailable on this host; racing two \
       engines\n%!";
  let sweep config =
    let t0 = Unix.gettimeofday () in
    let versions =
      List.map
        (fun (_, prog, input) -> Driver.Pipeline.measure config prog ~input)
        programs
    in
    (Unix.gettimeofday () -. t0, versions)
  in
  let native_codegen_seconds = ref None and native_cache_stats = ref None in
  let run_all backend =
    let config = { Driver.Config.default with Driver.Config.backend } in
    Printf.eprintf "[bench] measuring %d programs under the %s backend...\n%!"
      (List.length programs) (Sim.Machine.backend_name backend);
    (* the native engine's first sweep generates, compiles and dynlinks
       every image (or loads it from the artifact store); report that
       separately and keep it out of the steady-state timings *)
    if backend = `Native then begin
      Sim.Native.reset_stats ();
      let codegen_wall, _ = sweep config in
      native_codegen_seconds := Some codegen_wall
    end;
    let best = ref infinity and last = ref [] in
    for _ = 1 to runs_per_engine do
      let wall, versions = sweep config in
      if wall < !best then best := wall;
      last := versions
    done;
    if backend = `Native then native_cache_stats := Some (Sim.Native.stats ());
    (!best, !last)
  in
  let timed =
    List.map
      (fun b ->
        let wall, versions = run_all b in
        (b, wall, versions))
      engines
  in
  (* cross-check the fast backends against the reference sweep *)
  (match timed with
  | (_, _, oracle) :: rest ->
    List.iter
      (fun (b, _, versions) ->
        List.iteri
          (fun i (v : Driver.Pipeline.version) ->
            let o = List.nth oracle i in
            let name, _, _ = List.nth programs i in
            if
              v.Driver.Pipeline.v_counters <> o.Driver.Pipeline.v_counters
              || v.Driver.Pipeline.v_mispredicts
                 <> o.Driver.Pipeline.v_mispredicts
              || (not
                    (String.equal v.Driver.Pipeline.v_output
                       o.Driver.Pipeline.v_output))
              || v.Driver.Pipeline.v_exit_code <> o.Driver.Pipeline.v_exit_code
            then
              failwith
                (Printf.sprintf "backend %s disagrees with reference on %s"
                   (Sim.Machine.backend_name b) name))
          versions)
      rest
  | [] -> ());
  let backend_results =
    List.map (fun (b, w, _) -> (Sim.Machine.backend_name b, w)) timed
  in
  let wall_of name = List.assoc name backend_results in
  let compiled = wall_of "compiled" in
  Printf.printf "best of %d timed sweeps per engine\n" runs_per_engine;
  Printf.printf "%-12s %12s %14s\n" "backend" "measure wall" "vs compiled";
  line 40;
  List.iter
    (fun (b, w, _) ->
      Printf.printf "%-12s %11.3fs %13.2fx\n" (Sim.Machine.backend_name b) w
        (w /. Float.max 1e-9 compiled))
    timed;
  line 40;
  let refw = wall_of "reference" in
  if compiled < refw then
    Printf.printf
      "compiled beats reference by %.2fx on the suite measure stage\n"
      (refw /. Float.max 1e-9 compiled)
  else
    Printf.printf
      "WARNING: compiled (%.3fs) did not beat reference (%.3fs) on this run\n"
      compiled refw;
  match List.assoc_opt "native" backend_results with
  | None -> ()
  | Some nat ->
    let speedup = refw /. Float.max 1e-9 nat in
    (match !native_codegen_seconds with
    | Some c ->
      Printf.printf "native codegen+load sweep (excluded): %.3fs\n" c
    | None -> ());
    (match !native_cache_stats with
    | Some st ->
      Printf.printf
        "native cache: %d memo hit(s), %d disk hit(s), %d miss(es), %d \
         compile(s)\n"
        st.Sim.Native.memo_hits st.Sim.Native.disk_hits st.Sim.Native.misses
        st.Sim.Native.compiles
    | None -> ());
    Printf.printf "native vs reference on the measure stage: %.2fx\n" speedup

(* ------------------------------------------------------------------ *)
(* Harness speedup: domain fan-out vs sequential                       *)
(* ------------------------------------------------------------------ *)

let speedup () =
  section "Harness: parallel (domains) vs sequential wall clock (set I)";
  let d = domains () in
  let _, par_wall = rows_with_wall Mopt.Switch_lower.set_i in
  let _, seq_wall =
    if d = 1 then
      (* the matrix already ran on one domain; don't run it twice *)
      rows_with_wall Mopt.Switch_lower.set_i
    else run_matrix Mopt.Switch_lower.set_i ~domains:1
  in
  Printf.printf "cores (recommended domains): %d\n"
    (Domain.recommended_domain_count ());
  Printf.printf "parallel   (%2d domains): %8.2fs\n" d par_wall;
  Printf.printf "sequential ( 1 domain ): %8.2fs\n" seq_wall;
  Printf.printf "speedup: %.2fx\n" (seq_wall /. Float.max 1e-9 par_wall)

(* ------------------------------------------------------------------ *)
(* Static profile: heuristic prediction vs the training run             *)
(* ------------------------------------------------------------------ *)

(* per workload: (orig branches, reordered branches), [None] for a
   contained failure *)
let profile_branch_rows profile =
  let config =
    {
      Driver.Config.default with
      Driver.Config.heuristic = Mopt.Switch_lower.set_i;
      Driver.Config.verify = !verify;
      Driver.Config.profile;
    }
  in
  let jobs = jobs_for config in
  Printf.eprintf
    "[bench] running the 17 workloads with --profile=%s (set I)...\n%!"
    (Driver.Config.profile_name profile);
  let what = "--profile=" ^ Driver.Config.profile_name profile in
  List.map2
    (fun (w : Workloads.Spec.t) o ->
      ( w.Workloads.Spec.name,
        Option.map
          (fun (r : Driver.Pipeline.result) ->
            let branches (v : Driver.Pipeline.version) =
              v.Driver.Pipeline.v_counters.Sim.Counters.cond_branches
            in
            ( branches r.Driver.Pipeline.r_original,
              branches r.Driver.Pipeline.r_reordered ))
          (result_or_warn ~what o) ))
    Workloads.Registry.all (run_guarded jobs)

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
          Some
            ( (counters_of (orig r)).Sim.Counters.cond_branches,
              (counters_of (reord r)).Sim.Counters.cond_branches ) ))
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

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--fast" :: rest ->
      fast := true;
      go rest
    | "--seq" :: rest ->
      seq := true;
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
    | "--timeout-ms" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> timeout_ms := Some n
      | _ ->
        prerr_endline "bench: --timeout-ms expects a positive integer";
        exit 2);
      go rest
    | s :: _ when String.length s > 0 && s.[0] = '-' ->
      Printf.eprintf "bench: unknown option %s\n" s;
      exit 2
    | s :: rest ->
      sections := s :: !sections;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv))

let () =
  parse_args ();
  let t0 = Unix.gettimeofday () in
  if want "table3" then table3 ();
  if want "table4" then table4 ();
  if want "table5" then table5 ();
  if want "table6" then table6 ();
  if want "table7" then table7 ();
  if want "bechamel" || want "table7" then bechamel_table7 ();
  if want "table8" then table8 ();
  if want "figs" || want "figures" then figures ();
  if want "detection" then detection ();
  if want "backends" then backends_section ();
  if want "speedup" && not !seq then speedup ();
  if want "static" then static_profile_section ();
  (* ablations are opt-in: they re-run the pipeline many times *)
  if List.mem "ablations" !sections then ablations ();
  let harness_wall = Unix.gettimeofday () -. t0 in
  Printf.printf "\n[bench] done in %.1fs on %d domain(s)\n" harness_wall
    (domains ())
