(* bromc: the branch-reordering MiniC compiler driver.

   Subcommands:
     compile   parse, optimize and dump MIR
     run       compile and execute on an input, printing counters
     reorder   the full two-pass pipeline with before/after measurements
     suite     reorder many workloads at once, fanned across domains
     fuzz      random programs through the pipeline: translation
               validation + differential execution (--inject plants
               wrong-target bugs the verifier must catch)
     lint      structured static-analysis diagnostics (interval facts,
               arm subsumption/overlap, not-reorderable explanations)
     dot       Graphviz CFGs, optionally annotated with dataflow facts
     workloads list the built-in benchmark programs
     cache     inspect/prune the native artifact store and caches
     serve     long-running optimization service (line protocol)
     replay    simulated production traffic against a server

   This file parses arguments and prints; the work is the libraries'.
   The serve line protocol (parser, request inputs, reply lines) is in
   Driver.Replay, the suite --inject verdict is
   Driver.Pipeline.containment, and lint --divergence's branch tally is
   Sim.Machine.branch_counts. *)

open Cmdliner

let read_file path = In_channel.with_open_bin path In_channel.input_all

let flag names doc = Arg.(value & flag & info names ~doc)

(* an option without a default: [None] when absent *)
let maybe c names ~docv doc =
  Arg.(value & opt (some c) None & info names ~docv ~doc)

(* a converter over a closed set of names; [names] lists them in the
   error for any other *)
let named_conv ~what ~names of_name to_name =
  let parse s =
    match of_name s with
    | Some v -> Ok v
    | None ->
      Error (`Msg (Printf.sprintf "unknown %s %S (use %s)" what s names))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (to_name v))

(* [of_name] over a (name, value) list, [to_name] its inverse *)
let assoc_conv ~what ~names pairs =
  named_conv ~what ~names
    (fun s -> List.assoc_opt s pairs)
    (fun v -> fst (List.find (fun (_, v') -> v' == v) pairs))

let heuristic_conv =
  named_conv ~what:"heuristic set" ~names:"I, II or III"
    (function
      | "I" | "i" | "1" -> Some Mopt.Switch_lower.set_i
      | "II" | "ii" | "2" -> Some Mopt.Switch_lower.set_ii
      | "III" | "iii" | "3" -> Some Mopt.Switch_lower.set_iii
      | _ -> None)
    (fun hs -> hs.Mopt.Switch_lower.hs_name)

let heuristic_arg =
  Arg.(
    value
    & opt heuristic_conv Mopt.Switch_lower.set_i
    & info [ "h-set"; "heuristic" ] ~docv:"SET"
        ~doc:"Switch translation heuristic set: I, II or III (paper Table 2).")

let source_arg kind =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SOURCE"
        ~doc:
          (Printf.sprintf
             "MiniC source file to %s, or a built-in workload name prefixed \
              with '@' (e.g. @wc)."
             kind))

(* the built-in workload a SOURCE of the form @name names *)
let workload source =
  if String.length source > 1 && source.[0] = '@' then
    Some
      (Workloads.Registry.find
         (String.sub source 1 (String.length source - 1)))
  else None

let load_source source =
  match workload source with
  | Some w -> w.Workloads.Spec.source
  | None -> read_file source

(* an input FILE, else the input [default] picks from the workload an
   @-SOURCE names, else empty *)
let read_input ?default source file =
  match (file, default, workload source) with
  | Some f, _, _ -> read_file f
  | None, Some pick, Some w -> Lazy.force (pick w)
  | None, _, _ -> ""

let is_mir_file path = Filename.check_suffix path ".mir"

(* a source path is either MiniC (compiled) or textual MIR (parsed) *)
let load_program path hs =
  let prog =
    if is_mir_file path then Mir.Parse.program (read_file path)
    else begin
      let config = { Driver.Config.default with Driver.Config.heuristic = hs } in
      let prog = Driver.Pipeline.compile_base config (load_source path) in
      ignore (Mopt.Delay_slot.run prog);
      prog
    end
  in
  Mir.Validate.check prog;
  prog

(* every command's failure path: one line on stderr, then exit [code] *)
let handle_errors ?(code = 1) f =
  let fail fmt =
    Printf.ksprintf (fun msg -> prerr_endline msg; exit code) fmt
  in
  try f () with
  | Minic.Srcloc.Error (loc, msg) ->
    fail "error: %s" (Minic.Srcloc.error_to_string loc msg)
  | Sim.Machine.Trap msg -> fail "runtime trap: %s" msg
  | Mir.Parse.Error (line, msg) -> fail "error: line %d: %s" line msg
  | Failure msg | Sys_error msg -> fail "error: %s" msg
  | Unix.Unix_error (e, fn, arg) ->
    fail "error: %s %s: %s" fn arg (Unix.error_message e)
  | Not_found -> fail "error: no such file or workload"

(* ------------------------------------------------------------------ *)

let compile_cmd =
  let run source hs raw =
    handle_errors (fun () ->
        let prog =
          if is_mir_file source then Mir.Parse.program (read_file source)
          else if raw then Minic.Lower.compile (load_source source)
          else load_program source hs
        in
        print_string (Mir.Program.to_string prog);
        Printf.printf "\n; static instructions: %d\n"
          (Mir.Program.static_insn_count prog))
  in
  let raw =
    flag [ "raw" ] "Dump the front end's output without optimization."
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile MiniC and dump the optimized MIR.")
    Term.(const run $ source_arg "compile" $ heuristic_arg $ raw)

let input_arg =
  maybe Arg.string [ "input"; "i" ] ~docv:"FILE"
    "Input file fed to the simulated program (default: empty)."

let timings_arg =
  flag [ "timings" ] "Report per-stage wall-clock times on stderr."

let backend_conv =
  named_conv ~what:"backend" ~names:"reference, compiled or native"
    Sim.Machine.backend_of_name Sim.Machine.backend_name

let backend_arg =
  Arg.(
    value
    & opt backend_conv `Compiled
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Execution engine: $(b,reference) (MIR-walking oracle), \
           $(b,compiled) (closure-threaded code) or $(b,native) (runtime \
           OCaml codegen via ocamlfind + Dynlink; falls back to compiled \
           when no toolchain is present).  All three are observably \
           identical.")

let profile_conv =
  named_conv ~what:"profile source" ~names:"trained, static or both"
    Driver.Config.profile_of_name Driver.Config.profile_name

let profile_arg =
  Arg.(
    value
    & opt profile_conv `Trained
    & info [ "profile" ] ~docv:"SOURCE"
        ~doc:
          "Where the profile counts come from: $(b,trained) (a training \
           run over the training input; the paper's baseline), \
           $(b,static) (no training run — heuristic branch probabilities \
           propagated into CFG frequencies, Ball-Larus/Wu-Larus style) or \
           $(b,both) (train, then backfill sequences the training input \
           never exercised with the static prediction).")

let native_cache_dir_arg =
  maybe Arg.string [ "native-cache" ] ~docv:"DIR"
    "Directory of the native backend's compiled-artifact store \
     (default: $(b,BROMC_NATIVE_CACHE), else \
     \\$XDG_CACHE_HOME/bromc/native)."

(* --backend with --native-cache.  The directory becomes Sim.Native's
   process default, which every native run without its own cache
   directory reads.  Without [ladder] a native backend the toolchain
   cannot deliver is reported and replaced by the compiled one; with it,
   the guard's degradation ladder handles that per job *)
let backend_term ?(ladder = false) () =
  let resolve backend dir =
    if Option.is_some dir then Sim.Native.set_default_cache_dir dir;
    match backend with
    | `Native when (not ladder) && not (Sim.Native.available ()) ->
      prerr_endline
        "warning: native backend unavailable (no working ocamlfind/Dynlink \
         toolchain); falling back to compiled";
      `Compiled
    | b -> b
  in
  Term.(const resolve $ backend_arg $ native_cache_dir_arg)

let report_stage label seconds = Printf.eprintf "[time] %-8s %7.3fs\n" label seconds

let verify_arg =
  flag [ "verify" ]
    "Translation-validate every sequence rewrite (Check.Verify) right \
     after the reordering pass; a rejected rewrite aborts the run."

let quiet_arg = flag [ "quiet"; "q" ] "Suppress progress lines on stderr."

let run_cmd =
  let run source hs input trace backend timings =
    handle_errors (fun () ->
        let stage label f =
          if not timings then f ()
          else begin
            let t0 = Unix.gettimeofday () in
            let r = f () in
            report_stage label (Unix.gettimeofday () -. t0);
            r
          end
        in
        let prog = stage "compile" (fun () -> load_program source hs) in
        let input = read_input source input in
        let on_block =
          if trace then
            Some (fun ~func ~label -> Printf.eprintf "[trace] %s:%s\n" func label)
          else None
        in
        let result =
          stage "measure" (fun () -> Sim.Machine.run ~backend ?on_block prog ~input)
        in
        print_string result.Sim.Machine.output;
        Printf.eprintf "exit code: %d\n" result.Sim.Machine.exit_code;
        Format.eprintf "%a@." Sim.Counters.pp result.Sim.Machine.counters)
  in
  let trace =
    flag [ "trace" ]
      "Print every basic block executed to stderr (control-flow trace)."
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a MiniC program on the simulator.")
    Term.(
      const run $ source_arg "run" $ heuristic_arg $ input_arg $ trace
      $ backend_term () $ timings_arg)

let reorder_cmd =
  let run source hs train test exhaustive common_succ coalesce profile_layout
      profile backend timings verify =
    handle_errors (fun () ->
        let src = load_source source in
        let training_input, test_input =
          match (workload source, train, test) with
          | Some w, None, None ->
            ( Lazy.force w.Workloads.Spec.training_input,
              Lazy.force w.Workloads.Spec.test_input )
          | _ -> (read_input source train, read_input source test)
        in
        let config =
          {
            Driver.Config.default with
            Driver.Config.heuristic = hs;
            selector = (if exhaustive then `Exhaustive else `Greedy);
            common_succ;
            profile_layout;
            profile;
            backend;
            verify;
            coalesce_machine = coalesce;
          }
        in
        let on_stage = if timings then Some report_stage else None in
        let r =
          Driver.Pipeline.run ~config ?on_stage ~name:source ~source:src
            ~training_input ~test_input ()
        in
        (match r.Driver.Pipeline.r_verify with
        | Some summary ->
          print_string (Format.asprintf "%a" Check.Verify.pp_summary summary)
        | None -> ());
        let o = r.Driver.Pipeline.r_original.Driver.Pipeline.v_counters in
        let n = r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_counters in
        print_string
          (Format.asprintf "%a" Reorder.Pass.pp_report r.Driver.Pipeline.r_report);
        print_string
          (Format.asprintf "%a\n" Reorder.Stats.pp r.Driver.Pipeline.r_stats);
        Printf.printf "instructions: %d -> %d (%+.2f%%)\n"
          o.Sim.Counters.insns n.Sim.Counters.insns
          (Driver.Pipeline.pct o.Sim.Counters.insns n.Sim.Counters.insns);
        Printf.printf "branches:     %d -> %d (%+.2f%%)\n"
          o.Sim.Counters.cond_branches n.Sim.Counters.cond_branches
          (Driver.Pipeline.pct o.Sim.Counters.cond_branches
             n.Sim.Counters.cond_branches);
        Printf.printf "static insns: %d -> %d (%+.2f%%)\n"
          r.Driver.Pipeline.r_original.Driver.Pipeline.v_static_insns
          r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_static_insns
          (Driver.Pipeline.pct
             r.Driver.Pipeline.r_original.Driver.Pipeline.v_static_insns
             r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_static_insns))
  in
  let train =
    maybe Arg.string [ "train" ] ~docv:"FILE" "Training input (profiling run)."
  in
  let test =
    maybe Arg.string [ "test" ] ~docv:"FILE" "Test input (measurement runs)."
  in
  let exhaustive =
    flag [ "exhaustive" ]
      "Use the exhaustive ordering search instead of Figure 8's greedy."
  in
  let common_succ =
    flag [ "common-succ" ]
      "Also reorder common-successor branch runs (paper Section 10)."
  in
  let coalesce =
    let machines =
      assoc_conv ~what:"machine" ~names:"ipc, ss20 or ultra"
        Sim.Cycle_model.
          [ ("ipc", sparc_ipc); ("ss20", sparc_20); ("ultra", sparc_ultra1) ]
    in
    maybe machines [ "coalesce" ] ~docv:"MACHINE"
      "Let the profile choose between reordering and an indirect jump \
       under this machine's cost model (ipc, ss20 or ultra)."
  in
  let profile_layout =
    flag [ "profile-layout" ]
      "Also lay blocks out with training-run branch frequencies."
  in
  Cmd.v
    (Cmd.info "reorder"
       ~doc:"Run the full profile-guided reordering pipeline and report.")
    Term.(
      const run $ source_arg "reorder" $ heuristic_arg $ train $ test
      $ exhaustive $ common_succ $ coalesce $ profile_layout $ profile_arg
      $ backend_term () $ timings_arg $ verify_arg)

let suite_cmd =
  let run hs jobs backend verify profile names timeout_ms inject_n inject_seed
      no_degrade =
    handle_errors (fun () ->
        let workloads =
          match names with
          | [] -> Workloads.Registry.all
          | names -> List.map Workloads.Registry.find names
        in
        let config =
          {
            Driver.Config.default with
            Driver.Config.heuristic = hs;
            backend;
            verify;
            profile;
          }
        in
        (* force the lazy inputs in this domain before fanning out *)
        let jobs_list =
          List.map
            (fun (w : Workloads.Spec.t) ->
              Driver.Pipeline.job ~config ~name:w.Workloads.Spec.name
                ~source:w.Workloads.Spec.source
                ~training_input:(Lazy.force w.Workloads.Spec.training_input)
                ~test_input:(Lazy.force w.Workloads.Spec.test_input)
                ())
            workloads
        in
        let domains =
          max 1
            (match jobs with
            | Some j -> j
            | None -> Driver.Pool.default_domains ())
        in
        (* guarded: every job runs to a structured outcome, and failures
           cannot abort or disturb siblings *)
        let policy =
          { Driver.Guard.timeout_ms; degrade = not no_degrade }
        in
        let faults =
          if inject_n > 0 then
            Driver.Inject.plan ~seed:inject_seed
              ~jobs:(List.length jobs_list) ~count:inject_n
          else []
        in
        let t0 = Unix.gettimeofday () in
        let outcomes =
          Driver.Pipeline.run_jobs_guarded ~domains ~policy ~inject:faults
            jobs_list
        in
        let wall = Unix.gettimeofday () -. t0 in
        Printf.printf "%-8s %-8s %12s %12s %9s %5s %-10s %8s\n" "workload"
          "status" "orig insns" "reord insns" "reduction" "tries" "backend"
          "seconds";
        List.iter
          (fun (o : Driver.Pipeline.job_outcome) ->
            let backend =
              o.Driver.Pipeline.o_backend
              ^ if o.Driver.Pipeline.o_degraded then "*" else ""
            in
            match o.Driver.Pipeline.o_outcome with
            | Driver.Pool.Ok r ->
              let c_o =
                r.Driver.Pipeline.r_original.Driver.Pipeline.v_counters
              in
              let c_n =
                r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_counters
              in
              Printf.printf "%-8s %-8s %12d %12d %8.2f%% %5d %-10s %8.3f\n"
                o.Driver.Pipeline.o_name "ok" c_o.Sim.Counters.insns
                c_n.Sim.Counters.insns
                (Driver.Pipeline.pct c_o.Sim.Counters.insns
                   c_n.Sim.Counters.insns)
                o.Driver.Pipeline.o_attempts backend
                o.Driver.Pipeline.o_seconds
            | out ->
              Printf.printf "%-8s %-8s %12s %12s %9s %5d %-10s %8.3f\n"
                o.Driver.Pipeline.o_name (Driver.Pool.outcome_status out) "-"
                "-" "-" o.Driver.Pipeline.o_attempts backend
                o.Driver.Pipeline.o_seconds;
              Printf.printf "  %s\n" (Driver.Pool.outcome_message out))
          outcomes;
        let count p = List.length (List.filter p outcomes) in
        let is_ok (o : Driver.Pipeline.job_outcome) =
          Driver.Pool.outcome_ok o.Driver.Pipeline.o_outcome
        in
        let failed = count (fun o -> not (is_ok o)) in
        let degraded = count (fun o -> o.Driver.Pipeline.o_degraded) in
        Printf.printf
          "total: %.2fs on %d domain(s); %d ok (%d degraded), %d failed\n"
          wall domains (count is_ok) degraded failed;
        if faults <> [] then begin
          let c = Driver.Pipeline.containment faults outcomes in
          let lost =
            c.Driver.Pipeline.c_escapes @ c.Driver.Pipeline.c_collateral
          in
          Printf.printf
            "injection: %d faults planted, %d recovered, %d contained \
             failures, %d escapes, %d collateral\n"
            c.Driver.Pipeline.c_planted c.Driver.Pipeline.c_recovered
            c.Driver.Pipeline.c_contained
            (List.length c.Driver.Pipeline.c_escapes)
            (List.length c.Driver.Pipeline.c_collateral);
          List.iter (Printf.eprintf "error: %s\n") lost;
          if lost <> [] then exit 1
        end
        else if failed > 0 then exit 1)
  in
  let jobs =
    maybe Arg.int [ "j"; "jobs" ] ~docv:"N"
      "Number of domains to fan pipelines across (default: the \
       machine's recommended domain count, or $(b,BROMC_DOMAINS)); \
       each pipeline measures its original on one more domain."
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workloads to run (default: all built-ins).")
  in
  let timeout_ms =
    maybe Arg.int [ "timeout-ms" ] ~docv:"MS"
      "Per-attempt wall-clock watchdog: a run exceeding $(docv) is \
       cancelled at the next basic block and reported as a timeout."
  in
  let inject_n =
    Arg.(
      value & opt int 0
      & info [ "inject" ] ~docv:"N"
          ~doc:
            "Fault-injection self-test: plant $(docv) seeded faults (worker \
             exceptions, traps, fuel and deadline exhaustion, wrong-result \
             corruption) into distinct jobs and require every one to be \
             contained — recovered by degradation or attributed in the \
             outcome — with all sibling results intact.  Exits nonzero on \
             any escape.")
  in
  let inject_seed =
    Arg.(
      value & opt int 0
      & info [ "inject-seed" ] ~docv:"S"
          ~doc:"Seed for the fault plan.")
  in
  let no_degrade =
    flag [ "no-degrade" ]
      "Disable backend graceful degradation (by default a job whose \
       attempt crashes on the requested backend runs again down the \
       native > compiled > reference ladder; a missing \
       native toolchain counts as a crash of the native rung)."
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Run the reordering pipeline over many workloads in parallel and \
          print the per-workload instruction reductions.  Jobs are guarded: \
          crashes, traps and timeouts are contained per job and reported \
          together (see $(b,--timeout-ms), $(b,--inject)).")
    Term.(
      const run $ heuristic_arg $ jobs $ backend_term ~ladder:true ()
      $ verify_arg $ profile_arg $ names $ timeout_ms $ inject_n $ inject_seed
      $ no_degrade)

(* trained/static only: `Both is a pipeline notion (train + backfill);
   the per-case fuzz and corpus harnesses have exactly one counts
   source *)
let profile2_conv =
  named_conv ~what:"profile source" ~names:"trained or static"
    (fun s ->
      match Driver.Config.profile_of_name s with
      | Some ((`Trained | `Static) as p) -> Some p
      | Some `Both | None -> None)
    (fun p -> Driver.Config.profile_name (p :> [ `Trained | `Static | `Both ]))

(* the engines of a fuzz or corpus differential: --backend alone, else
   reference and compiled, with --native also native *)
let backends_term =
  let pick backend native =
    match (backend, native) with
    | Some b, _ -> [ b ]
    | None, true -> Check.Fuzz.all_backends ()
    | None, false -> Check.Fuzz.default_backends
  in
  let backend =
    maybe backend_conv [ "backend" ] ~docv:"BACKEND"
      "Run the differential on this engine alone (default: race the \
       reference and compiled engines against each other)."
  in
  let native =
    flag [ "native" ]
      "Also race the native backend (slow: one out-of-process compile \
       per program; skipped with a note when no toolchain is \
       available)."
  in
  Term.(const pick $ backend $ native)

let profile2_arg =
  Arg.(
    value
    & opt profile2_conv `Trained
    & info [ "profile" ] ~docv:"SOURCE"
        ~doc:
          "Counts source for every case: $(b,trained) (a training run on \
           the case's training input) or $(b,static) (profile-free \
           heuristic prediction; no training run).")

let fuzz_cmd =
  let run cases seed backends inject profile save_failure corpus_dir quiet =
    handle_errors (fun () ->
        let log = if quiet then ignore else fun m -> Printf.eprintf "%s\n%!" m in
        let stats =
          Check.Fuzz.run ~backends ~inject ~log ~profile ~cases ~seed ()
        in
        print_string (Format.asprintf "%a" Check.Fuzz.pp_stats stats);
        if inject && stats.Check.Fuzz.st_injected = 0 then begin
          Printf.eprintf
            "error: no case reordered, nothing could be injected — the run is \
             vacuous\n";
          exit 1
        end;
        if inject && stats.Check.Fuzz.st_caught < stats.Check.Fuzz.st_injected
        then begin
          Printf.eprintf "error: the verifier missed %d injected bug(s)\n"
            (stats.Check.Fuzz.st_injected - stats.Check.Fuzz.st_caught);
          exit 1
        end;
        if not (Check.Fuzz.ok stats) then begin
          (match save_failure with
          | Some path ->
            let oc = open_out path in
            List.iter
              (fun f ->
                output_string oc
                  (Format.asprintf "%a\n" Check.Fuzz.pp_failure f))
              stats.Check.Fuzz.st_failures;
            close_out oc;
            Printf.eprintf "shrunk counterexamples written to %s\n" path
          | None -> ());
          (match corpus_dir with
          | Some dir ->
            (* freeze each shrunk counterexample as a replayable repro *)
            List.iter
              (fun f ->
                let r = Check.Corpus.mint_from_failure ~seed f in
                Printf.eprintf "repro written to %s\n"
                  (Check.Corpus.save ~dir r))
              stats.Check.Fuzz.st_failures
          | None -> ());
          exit 1
        end)
  in
  let cases =
    Arg.(
      value & opt int 100
      & info [ "cases" ] ~docv:"N" ~doc:"Number of random programs to fuzz.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:"PRNG seed; runs are deterministic in the seed.")
  in
  let inject =
    flag [ "inject" ]
      "Plant a wrong-default-target bug into every reordered result and \
       require Check.Verify to reject each one (self-test of the \
       verifier; fails if any planted bug goes unnoticed)."
  in
  let save_failure =
    maybe Arg.string [ "save-failure" ] ~docv:"FILE"
      "Write shrunk counterexamples of failing cases to $(docv)."
  in
  let corpus_dir =
    maybe Arg.string [ "corpus-dir" ] ~docv:"DIR"
      "Freeze each shrunk counterexample as a $(b,.mir) repro under \
       $(docv), ready for $(b,bromc bench corpus) to replay."
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the reordering pipeline: random programs through generate → \
          train → reorder → translation-validate (Check.Verify) → \
          differential execution across backends, with shrunk \
          counterexamples on failure.  Runs are deterministic in \
          $(b,--seed): rerunning a seed reproduces a run.")
    Term.(
      const run $ cases $ seed $ backends_term $ inject $ profile2_arg
      $ save_failure $ corpus_dir $ quiet_arg)

let lint_cmd =
  let run source hs json no_explain facts divergence input =
    (* exit-code contract: 0 = clean, 1 = diagnostics, 2 = error *)
    handle_errors ~code:2 (fun () ->
        let prog = load_program source hs in
        let diags =
          Analysis.Lint.check_program prog
          @ (if no_explain then []
             else Reorder.Explain.explain_program ~facts prog)
          @
          if not divergence then []
          else begin
            (* measure the branches on a reference run, then flag the
               ones where the static prediction sits on the wrong side
               of 0.5 *)
            let input =
              read_input source input
                ~default:(fun w -> w.Workloads.Spec.training_input)
            in
            let counts =
              Sim.Machine.branch_counts ~config:Sim.Machine.default_config
                ~on_block:(fun ~func:_ ~label:_ -> ())
                prog ~inputs:[ input ]
            in
            Analysis.Lint.divergence prog ~observed:(fun ~func ~label ->
                Hashtbl.find_opt counts (func, label))
          end
        in
        if json then print_string (Analysis.Lint.to_json diags)
        else
          List.iter
            (fun d -> Format.printf "%a@\n" Analysis.Lint.pp_diag d)
            diags;
        exit (if diags = [] then 0 else 1))
  in
  let json =
    flag [ "json" ] "Emit the diagnostics as a JSON array on stdout."
  in
  let no_explain =
    flag [ "no-explain" ]
      "Suppress the not-reorderable explanations for lone range \
       tests; report only the interval-fact diagnostics."
  in
  let facts =
    Arg.(
      value
      & opt bool true
      & info [ "facts" ] ~docv:"BOOL"
          ~doc:
            "Run the not-reorderable walk with interval-facts detection \
             (default true), so the reasons reflect what even the \
             strengthened detection cannot admit.")
  in
  let divergence =
    flag [ "divergence" ]
      "Also run the program on the reference interpreter and report \
       every branch whose static heuristic prediction and measured \
       behaviour sit on opposite sides of 50% — where \
       $(b,--profile=static) and $(b,--profile=trained) would \
       reorder differently.  Advisory: predictions are heuristic, \
       not proved."
  in
  let input =
    maybe Arg.string [ "input" ; "i" ] ~docv:"FILE"
      "Input for the $(b,--divergence) measurement run (default: the \
       workload's training input for $(b,@)-sources, else empty)."
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a program and report proved diagnostics: \
          unreachable blocks, branches decidable from interval facts, \
          subsumed and overlapping range-test arms, and why lone range \
          tests are not reorderable.  Exit code 0 = clean, 1 = \
          diagnostics reported, 2 = error.")
    Term.(
      const run $ source_arg "lint" $ heuristic_arg $ json $ no_explain
      $ facts $ divergence $ input)

let dot_cmd =
  let run source hs facts =
    handle_errors (fun () ->
        let prog = load_program source hs in
        let annot =
          match facts with
          | None -> None
          | Some `Intervals ->
            Some
              (fun (fn : Mir.Func.t) ->
                let fx = Analysis.Intervals.analyze fn in
                let regs = ref Mir.Reg.Set.empty in
                Mir.Func.iter_regs
                  (fun r -> regs := Mir.Reg.Set.add r !regs)
                  fn;
                let regs = Mir.Reg.Set.elements !regs in
                fun (b : Mir.Block.t) ->
                  if not (Analysis.Intervals.reachable fx b.Mir.Block.label)
                  then Some "unreachable"
                  else
                    let facts =
                      List.filter_map
                        (fun r ->
                          let iv =
                            Analysis.Intervals.reg_in fx b.Mir.Block.label r
                          in
                          if Analysis.Iv.equal iv Analysis.Iv.top then None
                          else
                            Some
                              (Format.asprintf "%a:%a" Mir.Reg.pp r
                                 Analysis.Iv.pp iv))
                        regs
                    in
                    if facts = [] then None
                    else Some (String.concat " " facts))
          | Some `Live ->
            Some
              (fun (fn : Mir.Func.t) ->
                let lv = Mir.Liveness.compute fn in
                fun (b : Mir.Block.t) ->
                  let set = Mir.Liveness.live_in lv b.Mir.Block.label in
                  if Mir.Reg.Set.is_empty set then None
                  else
                    Some
                      (Format.asprintf "live: %a"
                         (Format.pp_print_list ~pp_sep:Format.pp_print_space
                            Mir.Reg.pp)
                         (Mir.Reg.Set.elements set)))
          | Some `Freq ->
            Some
              (fun (fn : Mir.Func.t) ->
                let loops = Analysis.Loops.analyze fn in
                let heur = Analysis.Heur.analyze ~loops fn in
                let freq = Analysis.Freq.analyze ~heur ~loops fn in
                fun (b : Mir.Block.t) ->
                  let label = b.Mir.Block.label in
                  if not (Analysis.Freq.reached freq label) then
                    Some "freq: unreached"
                  else
                    let parts =
                      Printf.sprintf "freq %.3g"
                        (Analysis.Freq.block_freq freq label)
                      :: List.filter_map
                           (fun (s, p) ->
                             (* annotate real splits only; jumps are 1 *)
                             if p >= 1. then None
                             else Some (Printf.sprintf "->%s %.2f" s p))
                           (Analysis.Freq.succ_probs freq label)
                    in
                    Some (String.concat " " parts))
        in
        Format.printf "%a" (Mir.Dot.program ?annot) prog)
  in
  let facts =
    let facts_conv =
      assoc_conv ~what:"facts" ~names:"intervals, live or freq"
        [ ("intervals", `Intervals); ("live", `Live); ("freq", `Freq) ]
    in
    maybe facts_conv [ "facts" ] ~docv:"KIND"
      "Annotate each block with dataflow facts: $(b,intervals) \
       (value ranges at block entry), $(b,live) (registers live \
       at block entry) or $(b,freq) (predicted execution frequency \
       and heuristic branch probabilities — what \
       $(b,--profile=static) feeds the reorderer)."
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Emit Graphviz CFGs for a program, optionally annotated with \
          dataflow analysis facts.")
    Term.(const run $ source_arg "render" $ heuristic_arg $ facts)

let workloads_cmd =
  let run () =
    List.iter
      (fun (w : Workloads.Spec.t) ->
        Printf.printf "%-8s %s\n" w.Workloads.Spec.name
          w.Workloads.Spec.description)
      Workloads.Registry.all
  in
  Cmd.v
    (Cmd.info "workloads" ~doc:"List the built-in Table 3 benchmark programs.")
    Term.(const run $ const ())

let cache_cmd =
  let run dir clear evict_stale verify =
    handle_errors (fun () ->
        let dir =
          match dir with Some d -> d | None -> Sim.Native.Cache.default_dir ()
        in
        if verify then begin
          let r = Sim.Native.Cache.verify ~dir () in
          Printf.printf "verified %d artifact(s) in %s: %d ok, %d quarantined\n"
            r.Sim.Native.Cache.v_checked dir r.Sim.Native.Cache.v_ok
            r.Sim.Native.Cache.v_quarantined;
          if r.Sim.Native.Cache.v_quarantined > 0 then begin
            (* corrupt or sidecar-less artifacts were moved aside; the
               next request for them rebuilds from source.  Non-zero
               exit so CI sweeps notice the store was unhealthy *)
            Printf.printf
              "quarantined artifacts moved to %s; they will be rebuilt on \
               next use\n"
              (Filename.concat dir "quarantine");
            exit 1
          end
        end
        else if clear then begin
          let n = Sim.Native.Cache.clear ~dir () in
          Printf.printf "cleared %d file(s) from %s\n" n dir
        end
        else if evict_stale then begin
          match Sim.Native.Cache.fingerprint () with
          | None ->
            Printf.eprintf
              "error: no working native toolchain, cannot tell which \
               fingerprint is current (use --clear to drop everything)\n";
            exit 1
          | Some fp ->
            let n = Sim.Native.Cache.evict_stale ~dir () in
            Printf.printf "evicted %d stale file(s) from %s (kept %s)\n" n dir
              fp
        end
        else begin
          (* default: --stats *)
          Printf.printf "store:       %s\n" dir;
          (match Sim.Native.Cache.fingerprint () with
          | Some fp -> Printf.printf "fingerprint: %s\n" fp
          | None -> Printf.printf "fingerprint: (no native toolchain)\n");
          let entries = Sim.Native.Cache.list ~dir () in
          if entries = [] then print_string "empty\n"
          else
            List.iter
              (fun (e : Sim.Native.Cache.entry) ->
                Printf.printf "%-32s %4d artifact(s) %10d bytes%s\n"
                  e.Sim.Native.Cache.e_fingerprint e.Sim.Native.Cache.e_files
                  e.Sim.Native.Cache.e_bytes
                  (if e.Sim.Native.Cache.e_current then "  (current)" else ""))
              entries
        end)
  in
  let dir =
    maybe Arg.string [ "dir" ] ~docv:"DIR"
      "Operate on this store instead of the default one."
  in
  let clear =
    flag [ "clear" ] "Remove every cached artifact in the store."
  in
  let evict_stale =
    flag [ "evict-stale" ]
      "Remove artifacts built by a different compiler/ABI fingerprint \
       than the current toolchain's (left behind by switches or \
       upgrades); the current fingerprint's artifacts are kept."
  in
  let verify =
    flag [ "verify" ]
      "Digest every cached artifact against its $(b,.sum) checksum \
       sidecar; mismatching and sidecar-less artifacts are \
       quarantined (rebuilt on next use) and reported with a \
       non-zero exit."
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect, verify or prune the native backend's on-disk $(b,.cmxs) \
          artifact store (default action: print per-fingerprint statistics).")
    Term.(const run $ dir $ clear $ evict_stale $ verify)

(* ------------------------------------------------------------------ *)
(* serve: the long-running optimization service                        *)
(* ------------------------------------------------------------------ *)

let domains_arg =
  maybe Arg.int [ "domains" ] ~docv:"N"
    "Worker domains (default: the machine's recommended count)."

let state_dir_arg =
  maybe Arg.string [ "state-dir" ] ~docv:"DIR"
    "Durable state directory: one record file per program, holding its \
     merged profile and drift generation, atomically replaced on every \
     merge.  The records found there are restored on startup \
     (crash-safe warm start)."

let serve_cmd =
  let run domains backend profile state_dir =
    handle_errors (fun () ->
        let config =
          { Driver.Config.default with Driver.Config.backend; profile }
        in
        let srv = Driver.Server.create ~config ?domains ?state_dir () in
        let out_lock = Mutex.create () in
        let print_line s = Mutex.protect out_lock (fun () -> print_endline s) in
        let inflight = Driver.Pool.Inflight.create () in
        let st = Driver.Server.stats srv in
        print_line
          (Printf.sprintf "ready domains=%d backend=%s restored=%d skipped=%d"
             (Driver.Server.domains srv)
             (Driver.Config.backend_name backend)
             st.Driver.Server.st_restored st.Driver.Server.st_skipped);
        let next_id = ref 0 in
        let quit = ref false in
        while not !quit do
          match input_line stdin with
          | exception End_of_file -> quit := true
          | line -> (
            match Driver.Replay.parse_command line with
            | Driver.Replay.Blank -> ()
            | Quit -> quit := true
            | Sync ->
              Driver.Pool.Inflight.wait inflight;
              Driver.Server.sync srv;
              print_line "synced"
            | Stats ->
              print_line
                ("stats "
                ^ Json.to_string
                    (Driver.Server.stats_json (Driver.Server.stats srv)))
            | Invalid reply -> print_line reply
            | Run { name; seed; deadline_ms } -> (
              incr next_id;
              let id = !next_id in
              match Driver.Replay.request name ~seed with
              | Error _ as refused ->
                print_line (Driver.Replay.render id refused)
              | Ok (source, input) ->
                Driver.Server.post ?deadline_ms srv ~name ~source ~input
                  (Driver.Pool.Inflight.track inflight (fun r ->
                       print_line (Driver.Replay.render id (Ok r))))))
        done;
        Driver.Pool.Inflight.wait inflight;
        Driver.Server.shutdown srv;
        print_line "bye")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running optimization service: a line protocol on \
          stdin/stdout over a worker-domain pool with content-hash \
          artifact caches, sharded online profiles and drift-triggered \
          re-optimization.  Requests: $(b,run WORKLOAD [SEED]) (responses \
          arrive as they finish, tagged $(b,resp ID ...); the built-in \
          $(b,drift) workload maps even seeds to phase-0 and odd seeds to \
          phase-1 inputs), $(b,sync) (drain, merge shards, run the drift \
          check), $(b,stats) (one JSON line), $(b,quit).  Every 4th \
          successful request of each program is profiled on the rung that \
          serves it, shards merge after 8 such samples, and the drift check \
          waits for 32 new profiled executions.  With $(b,--profile=static) cold \
          requests skip the first-request \
          training run and serve on the static prediction; the online \
          shard profiles and the drift check re-optimize as real counts \
          diverge from it.  With $(b,--state-dir) the daemon is crash-safe: \
          each program's learned profile and drift generation is kept \
          there in one record file, rewritten on every merge, and a \
          restart warm-starts every persisted program at its learned \
          generation.  $(b,run) accepts an \
          optional third argument, a per-request deadline in milliseconds.")
    Term.(
      const run $ domains_arg $ backend_term () $ profile_arg $ state_dir_arg)

(* ------------------------------------------------------------------ *)
(* replay: simulated production traffic against a server               *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let run requests concurrency workloads seed no_drift quiet backend chaos
      chaos_seed state_dir =
    handle_errors (fun () ->
        let config = { Driver.Config.default with Driver.Config.backend } in
        let workloads =
          Option.map
            (fun s ->
              String.split_on_char ',' s
              |> List.map String.trim
              |> List.filter (fun w -> not (String.equal w "")))
            workloads
        in
        let progress = if quiet then None else Some prerr_endline in
        let o =
          Driver.Replay.run ~config ?workloads ~requests ?concurrency ~seed
            ~drift:(not no_drift) ~chaos ~chaos_seed ?state_dir ?progress ()
        in
        print_string (Driver.Replay.report o);
        if
          o.Driver.Replay.ro_mismatches > 0
          || o.Driver.Replay.ro_failed > o.Driver.Replay.ro_chaos_failed
          || o.Driver.Replay.ro_chaos_escapes > 0
          || (o.Driver.Replay.ro_crash_restarts > 0
             && not o.Driver.Replay.ro_restore_exact)
        then exit 1)
  in
  let requests =
    Arg.(
      value & opt int 1000
      & info [ "requests"; "n" ] ~docv:"N" ~doc:"Requests to fire.")
  in
  let concurrency =
    maybe Arg.int [ "concurrency"; "j" ] ~docv:"N"
      "Worker domains / requests in flight (default: recommended)."
  in
  let workloads =
    maybe Arg.string [ "workloads" ] ~docv:"NAMES"
      "Comma-separated workload subset for the request mix (default: \
       all 17 built-ins)."
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Deterministic input-slice seed.")
  in
  let no_drift =
    flag [ "no-drift" ]
      "Leave the synthetic drifting workload out of the mix (no \
       mid-stream re-optimization demo)."
  in
  let chaos =
    Arg.(
      value & opt int 0
      & info [ "chaos" ] ~docv:"N"
          ~doc:
            "Plant N seeded faults across the request stream (worker \
             kills, stalls, artifact corruption/truncation, record \
             tears) and certify containment: a victim served with a \
             wrong result or lost is an escape and fails the run.")
  in
  let chaos_seed =
    Arg.(
      value & opt int 7
      & info [ "chaos-seed" ] ~docv:"N"
          ~doc:"Deterministic seed for the chaos fault plan.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Fire a mixed stream of workload requests at an in-process \
          optimization server, check every successful response against \
          the reference interpreter, and report cache hit rates, profile \
          merges and drift re-optimizations (exits nonzero on any \
          unplanned failure, oracle mismatch, chaos escape or inexact \
          restore).  The report holds no wall-clock number: at \
          $(b,-j 1) it is the same on every run.  With $(b,--state-dir) \
          the server is durable and a crash-restart cycle is certified \
          between the waves; with $(b,--chaos) seeded faults strike \
          mid-stream.  The server runs at $(b,serve)'s fixed profiling \
          rates.  Under $(b,--backend native) a $(b,native:) line \
          counts plugin compiles, disk hits and quarantined artifacts.")
    Term.(
      const run $ requests $ concurrency $ workloads $ seed $ no_drift
      $ quiet_arg $ backend_term () $ chaos $ chaos_seed $ state_dir_arg)

(* ------------------------------------------------------------------ *)
(* bench: replay the minimized-repro corpus                           *)
(* ------------------------------------------------------------------ *)

let bench_corpus_cmd =
  let run dir backends profile mint_inject seed cases quiet =
    handle_errors (fun () ->
        (match mint_inject with
        | Some n ->
          let repros =
            Check.Corpus.mint_from_inject ~seed ~cases ~max:n ()
          in
          List.iter
            (fun r ->
              Printf.printf "minted %s\n" (Check.Corpus.save ~dir r))
            repros
        | None -> ());
        let repros =
          match Check.Corpus.load_dir dir with
          | Ok rs -> rs
          | Error m -> failwith m
        in
        if repros = [] then Printf.printf "corpus: no repros under %s\n" dir
        else begin
          let failed = ref 0 in
          List.iter
            (fun (r : Check.Corpus.repro) ->
              let out = Check.Corpus.replay ~backends ~profile r in
              if out.Check.Fuzz.co_errors <> [] then begin
                incr failed;
                Printf.printf "FAIL %s (%s)\n" r.Check.Corpus.rp_name
                  r.Check.Corpus.rp_origin;
                List.iter (Printf.printf "  %s\n") out.Check.Fuzz.co_errors
              end
              else if not quiet then
                Printf.printf "ok   %s (%d reordered, %d pieces certified)\n"
                  r.Check.Corpus.rp_name out.Check.Fuzz.co_reordered
                  out.Check.Fuzz.co_pieces)
            repros;
          Printf.printf "corpus: %d repros, %d failed (%d backends)\n"
            (List.length repros) !failed (List.length backends);
          if !failed > 0 then exit 1
        end)
  in
  let dir =
    Arg.(
      value & opt string "corpus"
      & info [ "dir" ] ~docv:"DIR" ~doc:"The repro corpus directory.")
  in
  let mint_inject =
    maybe Arg.int [ "mint-inject" ] ~docv:"N"
      "Before replaying, recreate inject-mode fuzz cases, shrink the \
       first $(docv) caught counterexamples and save them into the \
       corpus (the seeding path)."
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S" ~doc:"Seed for $(b,--mint-inject).")
  in
  let cases =
    Arg.(
      value & opt int 50
      & info [ "cases" ] ~docv:"N"
          ~doc:"Case budget for $(b,--mint-inject).")
  in
  let quiet =
    flag [ "quiet"; "q" ] "Only print failures and the summary."
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Replay every minimized $(b,.mir) repro in the corpus through the \
          full pipeline — validate, lower under the recorded heuristic set, \
          train, reorder, certify, lint cross-check, backend differential — \
          and fail on any error.  The corpus is a regression suite minted \
          from caught counterexamples.  With \
          $(b,--profile=static) the repros replay under the profile-free \
          prediction instead of their recorded training runs.")
    Term.(
      const run $ dir $ backends_term $ profile2_arg $ mint_inject
      $ seed $ cases $ quiet)

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:
         "The minimized-repro corpus: mint repros from caught \
          counterexamples and replay them through the full pipeline.")
    [ bench_corpus_cmd ]

let main =
  Cmd.group
    (Cmd.info "bromc" ~version:"1.0.0"
       ~doc:
         "Branch-reordering MiniC compiler (PLDI 1998 reproduction: Yang, Uh \
          & Whalley).")
    [ compile_cmd; run_cmd; reorder_cmd; suite_cmd; fuzz_cmd; lint_cmd;
      dot_cmd; workloads_cmd; cache_cmd; serve_cmd; replay_cmd; bench_cmd ]

let () = exit (Cmd.eval main)
