(* The repository benchmark.

     perf.exe --workload NAME --seed N --seconds S --trace 0|1
              [--trace-out FILE] [--programs a,b] [--check-determinism]

   Each workload runs in its own process.  The run builds its inputs from
   the seed, sets up, measures for about S seconds, checks every output
   against the reference interpreter, prints each metric as
   "name value unit" and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones, timed with tracing off; --trace 1 is
   a separate run that wraps every layer call in a span and reports the
   per-layer metrics (and writes the spans to --trace-out as Chrome
   trace-event JSON).  Every end-to-end time is scaled to a nominal host
   speed read next to it (see speed.ml); the unscaled values are printed
   as notes.  Exit code 0 only when every output was correct. *)

open Driver

type workload = Batch_suite | Compile_matrix | Serve_steady | Serve_drift

let workloads =
  [ ("batch-suite", Batch_suite); ("compile-matrix", Compile_matrix);
    ("serve-steady", Serve_steady); ("serve-drift", Serve_drift) ]

(* the metric names and units BENCHMARK.json declares; a run prints
   exactly one of these two lists in its JSON line *)
let end_to_end =
  [ ("setup_s", "s"); ("throughput_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("cold_start_ms", "ms"); ("peak_rss_mb", "MB");
    ("insn_ratio", "ratio"); ("branch_ratio", "ratio");
    ("mispredict_ratio", "ratio"); ("cycle_ratio", "ratio");
    ("static_insn_ratio", "ratio") ]

(* stage spans whose total self time is a per-layer metric *)
let stage_spans =
  [ "minic.compile"; "mopt.switch_lower"; "mopt.cleanup"; "reorder.detect";
    "reorder.instrument"; "sim.train"; "reorder.pass"; "check.verify";
    "mopt.finalize"; "mir.validate"; "sim.image_build"; "sim.closure_compile";
    "sim.measure" ]

let per_layer =
  List.map (fun s -> (s ^ "_ms", "ms")) stage_spans
  @ [ ("latency_p99_ms", "ms"); ("sim.measure_minsn_per_s", "Minsn/s");
      ("probe.compiled_exec_us", "us"); ("probe.native_generate_us", "us");
      ("probe.native_prepare_ms", "ms"); ("probe.native_exec_us", "us");
      ("probe.native_run_image_us", "us"); ("pool.busy_ratio", "ratio");
      ("pool.service_ms_p50", "ms"); ("pool.service_ms_p99", "ms");
      ("pool.queue_wait_ms_p50", "ms"); ("pool.queue_wait_ms_p99", "ms");
      ("pipeline.job_ms_max", "ms"); ("guard.retries", "count");
      ("guard.degraded", "count"); ("server.shadow_ratio", "ratio");
      ("server.merges", "count"); ("server.stall_share", "ratio");
      ("server.reopts_per_kreq", "1/kreq");
      ("server.reopt_repeat_ratio", "ratio");
      ("artifact.program_hit_ratio", "ratio");
      ("artifact.image_builds", "count"); ("artifact.closure_builds", "count");
      ("native.memo_hit_ratio", "ratio"); ("native.compiles", "count");
      ("native.quarantined", "count"); ("state.journal_bytes", "bytes");
      ("sim.dyn_insns", "count"); ("mir.static_insns", "count");
      ("reorder.seqs_detected", "count"); ("reorder.seqs_reordered", "count");
      ("runtime.minor_mwords", "Mwords");
      ("runtime.major_collections", "count"); ("trace.overhead_pct", "%") ]

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let metrics : (string * (float * string)) list ref = ref []

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Bench_db.Json.Int (int_of_float v)
  else Bench_db.Json.Float v

let emit name unit v = metrics := (name, (v, unit)) :: !metrics

let note fmt = Printf.ksprintf (fun s -> Printf.printf "# %s\n%!" s) fmt

let failures : string list ref = ref []

let fail fmt =
  Printf.ksprintf
    (fun s ->
      failures := s :: !failures;
      Printf.eprintf "perf: %s\n%!" s)
    fmt

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let sum = List.fold_left ( +. ) 0.0
let mean xs = sum xs /. float_of_int (List.length xs)

(* mean over programs of each program's median *)
let per_program_mean samples =
  let by = Hashtbl.create 32 in
  List.iter
    (fun (p, v) -> Hashtbl.replace by p (v :: Option.value ~default:[] (Hashtbl.find_opt by p)))
    samples;
  mean (Hashtbl.fold (fun _ vs acc -> median vs :: acc) by [])

let ratio a b = if b = 0.0 then 0.0 else a /. b

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> go ()
    in
    let v = go () in
    close_in ic;
    v

let note_speed () =
  let rs = List.map (fun r -> r *. 1e6) !Speed.readings in
  note "speed: %d readings, median %.1f us (nominal %.1f), range %.1f-%.1f, %d with a collection"
    (List.length rs) (median rs) (Speed.nominal *. 1e6)
    (List.fold_left Float.min Float.infinity rs)
    (List.fold_left Float.max 0.0 rs) !Speed.collected

(* ------------------------------------------------------------------ *)
(* Scratch space: everything the run writes lives beside the executable *)
(* in the build directory                                              *)
(* ------------------------------------------------------------------ *)

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove p with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let rec mkdirs d =
  if not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let scratch_parent =
  Filename.concat (Filename.dirname Sys.executable_name) ".perf-tmp"

let scratch =
  Filename.concat scratch_parent (Printf.sprintf "run-%d" (Unix.getpid ()))

let fresh_dir name =
  let d = Filename.concat scratch name in
  rm_rf d;
  mkdirs d;
  d

let dir_bytes d =
  match Sys.readdir d with
  | exception Sys_error _ -> 0
  | es ->
    Array.fold_left
      (fun acc e ->
        match Unix.stat (Filename.concat d e) with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
        | _ | (exception Unix.Unix_error _) -> acc)
      0 es

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* the first [n] bytes of [text], cut back to the last newline *)
let prefix n text =
  if String.length text <= n then text
  else
    match String.rindex_from_opt text (n - 1) '\n' with
    | Some i when i > 0 -> String.sub text 0 (i + 1)
    | _ -> String.sub text 0 n

(* the input a served program always sees, and that probes run on *)
let cold_input text = prefix 1024 text

(* ------------------------------------------------------------------ *)
(* Paper effect (Tables 4, 5, 7 and 8) and its guarding counts         *)
(* ------------------------------------------------------------------ *)

let table5_predictor = (0, 2, 2048)
let table7_machine = Sim.Cycle_model.sparc_ultra1.Sim.Cycle_model.model_name

let change (r : Pipeline.result) =
  let o = r.Pipeline.r_original and n = r.Pipeline.r_reordered in
  let c (v : Pipeline.version) = v.Pipeline.v_counters in
  let pct = Pipeline.pct in
  [ ("insn", pct (c o).Sim.Counters.insns (c n).Sim.Counters.insns);
    ("branch", pct (c o).Sim.Counters.cond_branches (c n).Sim.Counters.cond_branches);
    ( "mispredict",
      pct
        (List.assoc table5_predictor o.Pipeline.v_mispredicts)
        (List.assoc table5_predictor n.Pipeline.v_mispredicts) );
    ( "cycle",
      pct
        (List.assoc table7_machine o.Pipeline.v_cycles)
        (List.assoc table7_machine n.Pipeline.v_cycles) );
    ("static_insn", pct o.Pipeline.v_static_insns n.Pipeline.v_static_insns) ]

(* mean over the runs of each reordered/original ratio, so that
   [ratio = 1 + mean change_pct / 100] *)
let emit_paper results =
  let n = float_of_int (List.length results) in
  List.iter
    (fun kind ->
      let mean_pct =
        sum (List.map (fun r -> List.assoc kind (change r)) results) /. n
      in
      note "%s_change_pct %.4f (mean over %d runs)" kind mean_pct
        (List.length results);
      emit (kind ^ "_ratio") "ratio" (1.0 +. (mean_pct /. 100.0)))
    [ "insn"; "branch"; "mispredict"; "cycle"; "static_insn" ]

(* everything count-derived about one run: must repeat exactly *)
let counts (r : Pipeline.result) =
  let v (x : Pipeline.version) =
    ( Sim.Counters.copy x.Pipeline.v_counters, x.Pipeline.v_static_insns,
      x.Pipeline.v_mispredicts, x.Pipeline.v_cycles,
      (x.Pipeline.v_output, x.Pipeline.v_exit_code) )
  in
  ( r.Pipeline.r_name, v r.Pipeline.r_original, v r.Pipeline.r_reordered,
    Reorder.Pass.detected_count r.Pipeline.r_report,
    Reorder.Pass.reordered_count r.Pipeline.r_report )

(* the same in 16 bytes: what a repeated run keeps of its result *)
let summary r = Digest.string (Marshal.to_string (counts r) [ Marshal.No_sharing ])

let emit_counts results =
  let tot f = float_of_int (List.fold_left (fun a r -> a + f r) 0 results) in
  emit "sim.dyn_insns" "count"
    (tot (fun r -> r.Pipeline.r_reordered.Pipeline.v_counters.Sim.Counters.insns));
  emit "mir.static_insns" "count"
    (tot (fun r -> r.Pipeline.r_reordered.Pipeline.v_static_insns));
  emit "reorder.seqs_detected" "count"
    (tot (fun r -> Reorder.Pass.detected_count r.Pipeline.r_report));
  emit "reorder.seqs_reordered" "count"
    (tot (fun r -> Reorder.Pass.reordered_count r.Pipeline.r_report))

(* ------------------------------------------------------------------ *)
(* Per-layer probes and span totals (traced runs)                      *)
(* ------------------------------------------------------------------ *)

let time_us f =
  let t = Spans.now_ns () in
  ignore (f ());
  float_of_int (Spans.now_ns () - t) /. 1000.0

let probe_reps = 5
let median_us f = median (List.init probe_reps (fun _ -> time_us f))

(* each program's served image, run on its cold input: the per-request
   cost of the compiled and native rungs, and of native code generation *)
let emit_probes (items : (Pipeline.result * string) list) =
  let sc = Stages.sim_config Config.default in
  let store = fresh_dir "probe-store" in
  let native = Sim.Native.available () in
  let rows =
    List.map
      (fun ((r : Pipeline.result), input) ->
        let img = Sim.Image.build r.Pipeline.r_reordered.Pipeline.v_program in
        let code = Sim.Compiled.compile img in
        let compiled = median_us (fun () -> Sim.Compiled.exec ~config:sc code ~input) in
        if not native then [ compiled; 0.0; 0.0; 0.0; 0.0 ]
        else begin
          let generate = median_us (fun () -> Sim.Native.generate img) in
          (* a fresh store and an empty memo: the prepare compiles *)
          Sim.Native.clear_memo ();
          let prepared = ref None in
          let prepare =
            time_us (fun () ->
                prepared := Result.to_option (Sim.Native.prepare ~cache_dir:store img))
          in
          match !prepared with
          | None ->
            fail "probe: native prepare failed for %s" r.Pipeline.r_name;
            [ compiled; generate; prepare /. 1000.0; 0.0; 0.0 ]
          | Some t ->
            let exec = median_us (fun () -> Sim.Native.exec ~config:sc t ~input) in
            let run_image =
              median_us (fun () ->
                  Sim.Native.run_image ~config:sc ~cache_dir:store img ~input)
            in
            [ compiled; generate; prepare /. 1000.0; exec; run_image ]
        end)
      items
  in
  List.iteri
    (fun i (name, unit) ->
      emit name unit (median (List.map (fun row -> List.nth row i) rows)))
    [ ("probe.compiled_exec_us", "us"); ("probe.native_generate_us", "us");
      ("probe.native_prepare_ms", "ms"); ("probe.native_exec_us", "us");
      ("probe.native_run_image_us", "us") ];
  if not native then note "native backend unavailable: native probes read 0"

let emit_stage_spans spans =
  let self_ms = Spans.self_ms_by_name spans in
  List.iter (fun s -> emit (s ^ "_ms") "ms" (self_ms s)) stage_spans;
  self_ms

let emit_measure_rate results self_ms =
  let insns =
    List.fold_left
      (fun a (r : Pipeline.result) ->
        a + r.Pipeline.r_original.Pipeline.v_counters.Sim.Counters.insns
        + r.Pipeline.r_reordered.Pipeline.v_counters.Sim.Counters.insns)
      0 results
  in
  emit "sim.measure_minsn_per_s" "Minsn/s"
    (ratio (float_of_int insns /. 1e6) (self_ms "sim.measure" /. 1000.0))

let emit_pool ~busy ~service ~wait ~job_max =
  emit "pool.busy_ratio" "ratio" busy;
  emit "pool.service_ms_p50" "ms" (median service);
  emit "pool.service_ms_p99" "ms" (percentile 99.0 service);
  emit "pool.queue_wait_ms_p50" "ms" (median wait);
  emit "pool.queue_wait_ms_p99" "ms" (percentile 99.0 wait);
  emit "pipeline.job_ms_max" "ms" job_max

let emit_gc (g0 : Gc.stat) (g1 : Gc.stat) =
  emit "runtime.minor_mwords" "Mwords"
    ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
  emit "runtime.major_collections" "count"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))

(* the serving layers' metrics, all zero on a batch workload *)
let emit_server_zero () =
  List.iter
    (fun (n, u) -> emit n u 0.0)
    [ ("server.shadow_ratio", "ratio"); ("server.merges", "count");
      ("server.stall_share", "ratio");
      ("server.reopts_per_kreq", "1/kreq"); ("server.reopt_repeat_ratio", "ratio");
      ("artifact.program_hit_ratio", "ratio"); ("artifact.image_builds", "count");
      ("artifact.closure_builds", "count"); ("native.memo_hit_ratio", "ratio");
      ("native.compiles", "count"); ("native.quarantined", "count");
      ("state.journal_bytes", "bytes") ]

(* ------------------------------------------------------------------ *)
(* Batch workloads                                                     *)
(* ------------------------------------------------------------------ *)

(* how many times a run sets up; setup_s is the median.  Enough that
   the set-ups of one run add up to a second or more of work *)
let setup_reps = function
  | Batch_suite | Compile_matrix -> 9
  | Serve_steady -> 5
  | Serve_drift -> 3

let batch w ~specs ~seconds ~trace ~check_determinism =
  let profiles, cut =
    match w with
    | Batch_suite -> ([ `Trained ], Fun.id)
    | _ -> ([ `Trained; `Static ], prefix 512)
  in
  let base_config = { Config.default with Config.verify = true } in
  (* set-up: the job list (inputs generated on first use) and the
     optimized bases the reference oracle runs on *)
  let build () =
    let jobs =
      List.concat_map
        (fun profile ->
          List.concat_map
            (fun heuristic ->
              List.map
                (fun (s : Workloads.Spec.t) ->
                  Pipeline.job
                    ~config:{ base_config with Config.heuristic; profile }
                    ~name:s.Workloads.Spec.name ~source:s.Workloads.Spec.source
                    ~training_input:(cut (Lazy.force s.Workloads.Spec.training_input))
                    ~test_input:(cut (Lazy.force s.Workloads.Spec.test_input))
                    ())
                specs)
            Mopt.Switch_lower.all_sets)
        profiles
    in
    let bases =
      List.map
        (fun (s : Workloads.Spec.t) ->
          (s.Workloads.Spec.name, Pipeline.compile_base base_config s.Workloads.Spec.source))
        specs
    in
    (jobs, bases)
  in
  (* a set-up between two speed readings: (unscaled, scaled) seconds *)
  let timed_build () =
    let before = Speed.read () in
    let t0 = Spans.now () in
    let r = build () in
    let t = Spans.now () -. t0 in
    (r, (t, t *. Speed.factor ~before ~after:(Speed.read ())))
  in
  let (jobs, bases), first_setup = timed_build () in
  let setups =
    first_setup :: List.init (setup_reps w - 1) (fun _ -> snd (timed_build ()))
  in
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let nspecs = List.length specs in
  note "%d jobs per round, one at a time" n;
  let policy = { Guard.default with Guard.degrade = true } in
  (* The timed phase runs the jobs round after round, each between two
     speed readings, until S has elapsed and every job has run (twice
     with --check-determinism).  Each run is [run_jobs_guarded] on one
     domain: [run_guarded_job] in the calling domain.  A job keeps its
     times and the result of its first run; a later run keeps only a
     digest, which must equal the first run's. *)
  let scaled = Array.make n [] and raw = Array.make n [] in
  let first = Array.make n None in
  let runs = ref 0 and failed = ref 0 and retried = ref 0 and degraded = ref 0 in
  let rss = ref 0.0 in
  let rounds = if check_determinism then 2 else 1 in
  let g0 = Gc.quick_stat () in
  let t_start = Spans.now () in
  let before = ref (Speed.read ()) in
  while !runs < rounds * n || Spans.now () -. t_start < seconds do
    let i = !runs mod n in
    let j = jobs.(i) in
    let o = Pipeline.run_guarded_job ~index:i ~policy j in
    let after = Speed.read () in
    let f = Speed.factor ~before:!before ~after in
    before := after;
    incr runs;
    (* the high-water mark after a fixed amount of work: one round *)
    if !runs = n then rss := peak_rss_mb ();
    retried := !retried + o.Pipeline.o_retried;
    if o.Pipeline.o_degraded then incr degraded;
    match o.Pipeline.o_outcome with
    | Pool.Ok r -> (
      scaled.(i) <- (o.Pipeline.o_seconds *. f) :: scaled.(i);
      raw.(i) <- o.Pipeline.o_seconds :: raw.(i);
      match first.(i) with
      | None -> first.(i) <- Some (r, summary r)
      | Some (_, s) ->
        if not (Digest.equal (summary r) s) then begin
          incr failed;
          fail "%s: run %d differs from the job's first run" j.Pipeline.job_name !runs
        end)
    | out ->
      incr failed;
      fail "%s: %s %s" j.Pipeline.job_name (Pool.outcome_status out)
        (Pool.outcome_message out)
  done;
  let g1 = Gc.quick_stat () in
  note "%d runs (%.2f rounds) in %.3f s" !runs
    (float_of_int !runs /. float_of_int n)
    (Spans.now () -. t_start);
  note "set-ups (s, scaled): %s"
    (String.concat " " (List.map (fun (_, s) -> Printf.sprintf "%.4f" s) setups));
  if check_determinism then
    note "determinism: every job ran at least twice, count-derived metrics %s"
      (if !failed = 0 then "identical" else "differ");
  (* correctness: both versions' observables of every job's first run
     equal the reference interpreter's on the unreordered base *)
  let oracle = Hashtbl.create 64 in
  let expected (j : Pipeline.job) =
    let key = (j.Pipeline.job_name, j.Pipeline.job_test_input) in
    match Hashtbl.find_opt oracle key with
    | Some e -> e
    | None ->
      let r =
        Sim.Machine.run_reference ~config:(Stages.sim_config base_config)
          (List.assoc j.Pipeline.job_name bases) ~input:j.Pipeline.job_test_input
      in
      let e = (r.Sim.Machine.output, r.Sim.Machine.exit_code) in
      Hashtbl.replace oracle key e;
      e
  in
  Array.iteri
    (fun i f ->
      match f with
      | None -> ()
      | Some ((r : Pipeline.result), _) ->
        let out, code = expected jobs.(i) in
        let obs (v : Pipeline.version) =
          String.equal v.Pipeline.v_output out && v.Pipeline.v_exit_code = code
        in
        if not (obs r.Pipeline.r_original && obs r.Pipeline.r_reordered) then begin
          incr failed;
          fail "%s: output differs from the reference interpreter" jobs.(i).Pipeline.job_name
        end)
    first;
  let first_ok = List.filter_map (Option.map fst) (Array.to_list first) in
  (* A job's time is the median of its runs.  Each job's first run is
     the first time the process runs that program and configuration (the
     pipeline caches nothing): a program's cold start is the median of
     its jobs' first runs. *)
  let per_job times =
    List.filter_map (function [] -> None | ts -> Some (median ts)) (Array.to_list times)
  in
  let first_runs times =
    List.concat
      (List.mapi
         (fun i ts -> match List.rev ts with t :: _ -> [ (i mod nspecs, t) ] | [] -> [])
         (Array.to_list times))
  in
  let throughput times =
    let js = per_job times in
    float_of_int (List.length js) /. sum js
  in
  let p50_ms times = 1000.0 *. median (per_job times) in
  let cold_ms times = 1000.0 *. per_program_mean (first_runs times) in
  let all_ms = List.concat_map (List.map (fun t -> t *. 1000.0)) (Array.to_list scaled) in
  if not trace then begin
    emit "setup_s" "s" (median (List.map snd setups));
    emit "throughput_per_s" "1/s" (throughput scaled);
    note "latency samples: %d jobs, %d runs" (List.length (per_job scaled))
      (List.length all_ms);
    emit "latency_p50_ms" "ms" (p50_ms scaled);
    emit "cold_start_ms" "ms" (cold_ms scaled);
    emit "peak_rss_mb" "MB" !rss;
    note "unscaled: setup_s %.4f throughput_per_s %.4f latency_p50_ms %.3f cold_start_ms %.3f"
      (median (List.map fst setups)) (throughput raw) (p50_ms raw) (cold_ms raw);
    emit_paper first_ok
  end
  else begin
    (* the pipeline rebuilt from its stage functions, one span per layer
       call, on the same jobs: it must reproduce the untraced runs *)
    Spans.enabled := true;
    let t0 = Spans.now_ns () in
    let read () = Spans.with_span "speed.read" Speed.read in
    let timed =
      Spans.with_span "pass" (fun () ->
          let before = ref (read ()) in
          Array.to_list
            (Array.map
               (fun (j : Pipeline.job) ->
                 let s = Spans.now_ns () in
                 let r =
                   Spans.with_span "pipeline.job" (fun () ->
                       Stages.run j.Pipeline.job_config ~name:j.Pipeline.job_name
                         ~source:j.Pipeline.job_source
                         ~training_input:j.Pipeline.job_training_input
                         ~test_input:j.Pipeline.job_test_input)
                 in
                 let e = Spans.now_ns () in
                 let after = read () in
                 let f = Speed.factor ~before:!before ~after in
                 before := after;
                 (r, s, e, float_of_int (e - s) *. 1e-9 *. f))
               jobs))
    in
    let wall_ns = Spans.now_ns () - t0 in
    Spans.enabled := false;
    let spans = Spans.all () in
    List.iteri
      (fun i (r, _, _, _) ->
        match first.(i) with
        | Some (u, _) when counts u = counts r -> ()
        | _ -> fail "%s: traced pipeline differs from Pipeline.run" r.Pipeline.r_name)
      timed;
    let self_ms = emit_stage_spans spans in
    note "analysis.static_profile_ms %.3f ms" (self_ms "analysis.static_profile");
    let results = List.map (fun (r, _, _, _) -> r) timed in
    emit_measure_rate results self_ms;
    let ms ns = float_of_int ns /. 1e6 in
    let service = List.map (fun (_, s, e, _) -> ms (e - s)) timed in
    let wait = List.map (fun (_, s, _, _) -> ms (s - t0)) timed in
    let wall_ms = ms wall_ns in
    emit_pool ~busy:(sum service /. wall_ms) ~service ~wait
      ~job_max:(List.fold_left max 0.0 service);
    let self_total =
      sum (List.map (fun (_, self) -> float_of_int self /. 1e6) (Spans.self_times spans))
    in
    note "trace: %d spans; self times sum to %.1f ms over a %.1f ms pass (%.1f%%)"
      (List.length spans) self_total wall_ms (100.0 *. self_total /. wall_ms);
    emit "latency_p99_ms" "ms" (percentile 99.0 all_ms);
    emit "guard.retries" "count" (float_of_int !retried);
    emit "guard.degraded" "count" (float_of_int !degraded);
    emit_server_zero ();
    emit_counts first_ok;
    emit_gc g0 g1;
    let traced = sum (List.map (fun (_, _, _, t) -> t) timed) in
    let untraced = sum (List.map snd (first_runs scaled)) in
    emit "trace.overhead_pct" "%" (100.0 *. ((traced /. untraced) -. 1.0));
    (* one probe per program: its first job's reordered image *)
    emit_probes
      (List.filteri (fun i _ -> i < nspecs)
         (List.mapi (fun i r -> (r, cold_input jobs.(i).Pipeline.job_test_input)) results))
  end;
  note_speed ();
  (!runs, !failed)

(* ------------------------------------------------------------------ *)
(* Serve workloads                                                     *)
(* ------------------------------------------------------------------ *)

let drift_slices = 8

(* A closed loop runs in segments of [segment_s].  The worker that
   finishes a segment's last request reads the host's speed, with
   nothing in flight: the core that served the segment, right after it.
   An untimed first segment gives the first reading. *)
let segment_s = 0.5

type segment = { samples : Load.sample list; wall : float; factor : float }

let closed_segments srv ~seconds ~next ~keep =
  let reading = ref 0.0 in
  let idle () = reading := Speed.read () in
  let segment s = Load.closed ~idle srv ~inflight:2 ~seconds:s ~next in
  keep (fst (segment 0.1));
  let rec go acc elapsed =
    let s = Float.min segment_s (seconds -. elapsed) in
    (* a segment too short to send in would come back empty *)
    if s < 0.01 then List.rev acc
    else begin
      let before = !reading in
      let samples, wall = segment s in
      keep samples;
      go ({ samples; wall; factor = Speed.factor ~before ~after:!reading } :: acc) (elapsed +. wall)
    end
  in
  go [] 0.0

let serve w ~specs ~seed ~seconds ~trace ~check_determinism =
  let native = w = Serve_drift in
  if native && not (Sim.Native.available ()) then begin
    Printf.eprintf "perf: serve-drift needs the native backend, which is unavailable\n%!";
    exit 1
  end;
  let backend = if native then `Native else `Compiled in
  let config = { Config.default with Config.backend; verify = true } in
  let domains = if native then 2 else 1 in
  (* open-loop rates at about half of each workload's capacity here *)
  let rate = if native then 100.0 else 400.0 in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let key = ref 0 in
  let req name source input =
    incr key;
    { Load.key = !key; name; source; input }
  in
  (* Each of the 17 programs is always served the input it was trained
     on at its first request, so its ordering never changes.  With
     several inputs per program the drift check flip-flops on stationary
     traffic (finding 2 in README.md), a different number of times for
     each seed, and each flip costs a re-optimization that the
     throughput would carry as noise.  Only the drift program, whose
     traffic is meant to change, re-optimizes while timing. *)
  let colds =
    List.map
      (fun (s : Workloads.Spec.t) ->
        req s.Workloads.Spec.name s.Workloads.Spec.source
          (cold_input (Lazy.force s.Workloads.Spec.test_input)))
      specs
  in
  let drift_cold =
    req Replay.drift_name Replay.drift_source (Replay.drift_input ~phase:0 ~seed:0)
  in
  let drift =
    Array.init 2 (fun phase ->
        Array.init drift_slices (fun _ ->
            req Replay.drift_name Replay.drift_source
              (Replay.drift_input ~phase ~seed:(Random.State.bits rng))))
  in
  let all_colds = colds @ [ drift_cold ] in
  (* requests cycle through seeded permutations *)
  let shuffle a =
    let a = Array.of_list a in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  let cycle = shuffle colds in
  let drift_cycle = Array.map (fun d -> shuffle (Array.to_list d)) drift in
  let sent = ref 0 and drift_sent = ref 0 in
  let t_timing = ref Float.infinity in
  (* in serve-drift every fourth request runs the drift program, whose
     input phase flips every 5 s *)
  let next _ ~at =
    incr sent;
    if native && !sent mod 4 = 0 then begin
      incr drift_sent;
      let phase =
        if at < !t_timing then 0 else int_of_float ((at -. !t_timing) /. 5.0) mod 2
      in
      drift_cycle.(phase).(!drift_sent mod drift_slices)
    end
    else cycle.(!sent mod Array.length cycle)
  in
  let responses : (Load.request * Server.response) list ref = ref [] in
  let keep samples =
    List.iter (fun (s : Load.sample) -> responses := (s.Load.s_req, s.Load.s_resp) :: !responses) samples
  in
  (* set-up: a fresh store, state dir and server; every program's first
     request (the cold start, each followed by a speed reading on the
     worker that served it, and scaled by that reading and the one
     before), two cycles of the warm mix, then sync.
     Its time leaves out the readings' own and is scaled by their
     median. *)
  let setup k =
    let readings = ref [ Speed.read () ] in
    let spent = !Speed.spent in
    let t0 = Spans.now () in
    let store = fresh_dir (Printf.sprintf "store-%d" k) in
    let state = fresh_dir (Printf.sprintf "state-%d" k) in
    Sim.Native.clear_memo ();
    Sim.Native.reset_stats ();
    let config = { config with Config.native_cache_dir = Some store } in
    let srv =
      Server.create ~config ~domains
        ?state_dir:(if native then Some state else None) ()
    in
    let before = ref None in
    let cold =
      List.map
        (fun (q : Load.request) ->
          let after = ref 0.0 in
          let s = Load.one ~idle:(fun () -> after := Speed.read ()) srv q in
          let after = !after in
          let f = Speed.factor ~before:(Option.value !before ~default:after) ~after in
          before := Some after;
          readings := after :: !readings;
          keep [ s ];
          let ms = Load.latency_ms s in
          (ms, ms *. f))
        all_colds
    in
    let warm = 2 * Array.length cycle * (if native then 4 else 3) / 3 in
    keep (Load.run_list srv ~inflight:2 (List.init warm (fun i -> next i ~at:0.0)));
    Server.sync srv;
    let t = Spans.now () -. t0 -. (!Speed.spent -. spent) in
    let f = Speed.nominal /. median (Speed.read () :: !readings) in
    (srv, store, state, (t, t *. f), cold)
  in
  let rec setups k acc =
    let ((srv, store, state, _, _) as s) = setup k in
    if k = setup_reps w then (s, List.rev (s :: acc))
    else begin
      Server.shutdown srv;
      rm_rf store;
      rm_rf state;
      setups (k + 1) (s :: acc)
    end
  in
  let (srv, store, state, _, _), all_setups = setups 1 [] in
  let setups = List.map (fun (_, _, _, t, _) -> t) all_setups in
  note "set-ups (s, scaled): %s"
    (String.concat " " (List.map (fun (_, s) -> Printf.sprintf "%.4f" s) setups));
  let cold_ms = List.concat_map (fun (_, _, _, _, c) -> c) all_setups in
  (* untraced, the whole time is one closed loop, where throughput and
     latency are measured; traced, a third each: closed loop, closed
     loop with spans on (the tracing overhead), open loop *)
  let phase_s = if trace then seconds /. 3.0 else seconds in
  let g0 = Gc.quick_stat () in
  t_timing := Spans.now ();
  let reopts_before = (Server.stats srv).Server.st_reopts in
  let closed = closed_segments srv ~seconds:phase_s ~next ~keep in
  let traced_closed, (opened, open_wall) =
    if not trace then (None, ([], 0.0))
    else begin
      Spans.enabled := true;
      let c = closed_segments srv ~seconds:phase_s ~next ~keep in
      let o = Load.open_ srv ~inflight:2 ~rate ~seconds:phase_s ~next in
      keep (fst o);
      (Some c, o)
    end
  in
  let g1 = Gc.quick_stat () in
  Spans.enabled := false;
  let t_sync = Spans.now () in
  Server.sync srv;
  note "server.sync_ms %.3f ms" ((Spans.now () -. t_sync) *. 1000.0);
  let stats = Server.stats srv in
  note "re-optimizations: %d during set-up, %d during timing" reopts_before
    (stats.Server.st_reopts - reopts_before);
  let events = Server.reopt_events srv in
  let journal_bytes = dir_bytes state in
  (* correctness, untimed: every response byte-identical to the
     reference interpreter, memoized per distinct (program, input) *)
  let oracle = Hashtbl.create 256 in
  let failed = ref 0 in
  let requested = Config.backend_name backend in
  List.iter
    (fun ((q : Load.request), (r : Server.response)) ->
      let expect =
        match Hashtbl.find_opt oracle q.Load.key with
        | Some e -> e
        | None ->
          let out, code =
            Server.oracle srv ~name:q.Load.name ~source:q.Load.source ~input:q.Load.input
          in
          let e = (Digest.string out, code) in
          Hashtbl.replace oracle q.Load.key e;
          e
      in
      if r.Server.rs_status <> "ok" then begin
        incr failed;
        fail "%s: %s %s" q.Load.name r.Server.rs_status r.Server.rs_message
      end
      else if (r.Server.rs_output, r.Server.rs_exit_code) <> expect then begin
        incr failed;
        fail "%s: response differs from the reference interpreter" q.Load.name
      end
      else if native && r.Server.rs_backend <> requested then begin
        incr failed;
        fail "%s: served by %s, not native" q.Load.name r.Server.rs_backend
      end)
    !responses;
  note "%d responses checked against %d distinct oracle runs" (List.length !responses)
    (Hashtbl.length oracle);
  Server.shutdown srv;
  rm_rf store;
  rm_rf state;
  (* the cold path rebuilt from its stage functions: gen-1 code quality
     on each program's cold input, and (traced) its per-layer split *)
  let replay_config = { config with Config.backend = `Compiled; native_cache_dir = None } in
  let replay () =
    List.map
      (fun (q : Load.request) ->
        let t = Spans.now () in
        let r =
          Spans.with_span "pipeline.job" (fun () ->
              Stages.serve_cold replay_config ~name:q.Load.name ~source:q.Load.source
                ~input:q.Load.input)
        in
        (r, q, (Spans.now () -. t) *. 1000.0))
      all_colds
  in
  Spans.enabled := trace;
  let cold_runs = replay () in
  Spans.enabled := false;
  let results = List.map (fun (r, _, _) -> r) cold_runs in
  List.iter
    (fun ((r : Pipeline.result), (q : Load.request), _) ->
      match Hashtbl.find_opt oracle q.Load.key with
      | Some e
        when e
             = ( Digest.string r.Pipeline.r_reordered.Pipeline.v_output,
                 r.Pipeline.r_reordered.Pipeline.v_exit_code ) -> ()
      | _ -> fail "%s: cold-path replay output differs from the server's" q.Load.name)
    cold_runs;
  if check_determinism then begin
    let again = List.map (fun (r, _, _) -> counts r) (replay ()) in
    if again <> List.map counts results then fail "cold-path replay counts differ between runs"
    else note "determinism: cold-path replay count-derived metrics identical"
  end;
  let ok samples =
    List.filter (fun (s : Load.sample) -> s.Load.s_resp.Server.rs_status = "ok") samples
  in
  (* a closed loop's throughput and latencies, scaled or not *)
  let rps ~scale segs =
    float_of_int (List.length (List.concat_map (fun s -> ok s.samples) segs))
    /. sum (List.map (fun s -> s.wall *. if scale then s.factor else 1.0) segs)
  in
  let latencies ~scale segs =
    List.concat_map
      (fun s ->
        List.map (fun x -> Load.latency_ms x *. if scale then s.factor else 1.0) (ok s.samples))
      segs
  in
  (* A closed loop's stalls: gaps between consecutive completions of at
     least 20 ms and ten times the median gap, mostly the
     re-optimizations the drift check fires (on serve-drift each waits
     for a native compile behind Sim.Native's global lock).  They count
     in the throughput like any other time; their share is a per-layer
     diagnostic. *)
  let stalls samples =
    let dones = sorted (List.map (fun (s : Load.sample) -> s.Load.s_done) samples) in
    let gaps = List.init (max 0 (Array.length dones - 1)) (fun i -> dones.(i + 1) -. dones.(i)) in
    let cut = Float.max 0.02 (10.0 *. median gaps) in
    sum (List.filter (fun g -> g >= cut) gaps)
  in
  let closed_wall = sum (List.map (fun s -> s.wall) closed) in
  let stalled = sum (List.map (fun s -> stalls s.samples) closed) in
  note "closed loop: %d requests in %d segments, %.3f s, %.0f ms of it in stalls"
    (List.length (List.concat_map (fun s -> s.samples) closed))
    (List.length closed) closed_wall (1000.0 *. stalled);
  let cold_samples pick = List.mapi (fun i c -> (i mod List.length all_colds, pick c)) cold_ms in
  if not trace then begin
    emit "setup_s" "s" (median (List.map snd setups));
    emit "throughput_per_s" "1/s" (rps ~scale:true closed);
    let lat = latencies ~scale:true closed in
    note "latency samples: %d closed-loop requests" (List.length lat);
    emit "latency_p50_ms" "ms" (median lat);
    note "cold-start samples: %d (%d set-ups x %d programs)" (List.length cold_ms)
      (setup_reps w) (List.length all_colds);
    emit "cold_start_ms" "ms" (per_program_mean (cold_samples snd));
    emit "peak_rss_mb" "MB" (peak_rss_mb ());
    note "unscaled: setup_s %.4f throughput_per_s %.4f latency_p50_ms %.4f cold_start_ms %.3f"
      (median (List.map fst setups)) (rps ~scale:false closed)
      (median (latencies ~scale:false closed))
      (per_program_mean (cold_samples fst));
    emit_paper results
  end
  else begin
    let replay_spans =
      List.filter (fun (s : Spans.span) -> s.Spans.req = 0) (Spans.all ())
    in
    let self_ms = emit_stage_spans replay_spans in
    emit_measure_rate results self_ms;
    let open_ok = ok opened in
    let lat = List.map Load.latency_ms open_ok in
    let lag_p99 = percentile 99.0 (List.map (fun (s : Load.sample) -> s.Load.s_lag *. 1000.0) opened) in
    note "open loop: %d requests at %.0f/s in %.3f s, latency_p50_ms %.4f" (List.length opened)
      rate open_wall (median lat);
    note "load.generator_lag_ms_p99 %.4f ms%s" lag_p99
      (if lag_p99 > 1.0 then " (over 1 ms: the open loop ran late)" else "");
    let service = List.map (fun (s : Load.sample) -> s.Load.s_resp.Server.rs_wall_ms) open_ok in
    let wait =
      List.map (fun (s : Load.sample) -> Load.latency_ms s -. s.Load.s_resp.Server.rs_wall_ms) open_ok
    in
    emit "latency_p99_ms" "ms" (percentile 99.0 lat);
    emit_pool
      ~busy:(sum service /. (float_of_int domains *. open_wall *. 1000.0))
      ~service ~wait
      ~job_max:(List.fold_left (fun m (_, _, t) -> max m t) 0.0 cold_runs);
    emit "guard.retries" "count" 0.0;
    emit "guard.degraded" "count"
      (float_of_int
         (List.length
            (List.filter
               (fun (_, (r : Server.response)) -> r.Server.rs_backend <> requested)
               !responses)));
    let req = float_of_int stats.Server.st_requests in
    emit "server.shadow_ratio" "ratio" (ratio (float_of_int stats.Server.st_shadow_runs) req);
    emit "server.merges" "count" (float_of_int stats.Server.st_merges);
    emit "server.stall_share" "ratio" (stalled /. closed_wall);
    emit "server.reopts_per_kreq" "1/kreq"
      (ratio (1000.0 *. float_of_int stats.Server.st_reopts) req);
    (* a re-optimization back to an ordering the program already served *)
    let seen = Hashtbl.create 16 in
    let repeats =
      List.fold_left
        (fun n (e : Server.reopt_event) ->
          let k = (e.Server.re_program, e.Server.re_signature) in
          let n = if Hashtbl.mem seen k then n + 1 else n in
          Hashtbl.replace seen k ();
          n)
        0 events
    in
    List.iter
      (fun (e : Server.reopt_event) ->
        note "reopt %s -> gen %d after %d executions" e.Server.re_program
          e.Server.re_generation e.Server.re_executions)
      events;
    emit "server.reopt_repeat_ratio" "ratio"
      (ratio (float_of_int repeats) (float_of_int (List.length events)));
    let cache name =
      List.find (fun (s : Sim.Artifact.stats) -> s.Sim.Artifact.a_name = name) stats.Server.st_caches
    in
    let programs_cache = cache "programs" in
    emit "artifact.program_hit_ratio" "ratio"
      (ratio (float_of_int programs_cache.Sim.Artifact.a_hits)
         (float_of_int (programs_cache.Sim.Artifact.a_hits + programs_cache.Sim.Artifact.a_misses)));
    emit "artifact.image_builds" "count" (float_of_int (cache "image").Sim.Artifact.a_builds);
    emit "artifact.closure_builds" "count" (float_of_int (cache "closure").Sim.Artifact.a_builds);
    let ns = stats.Server.st_native in
    emit "native.memo_hit_ratio" "ratio"
      (ratio (float_of_int ns.Sim.Native.memo_hits)
         (float_of_int (ns.Sim.Native.memo_hits + ns.Sim.Native.disk_hits + ns.Sim.Native.misses)));
    emit "native.compiles" "count" (float_of_int ns.Sim.Native.compiles);
    emit "native.quarantined" "count" (float_of_int ns.Sim.Native.quarantined);
    emit "state.journal_bytes" "bytes" (float_of_int journal_bytes);
    emit_counts results;
    emit_gc g0 g1;
    (match traced_closed with
    | Some c ->
      emit "trace.overhead_pct" "%"
        (100.0 *. ((rps ~scale:true closed /. rps ~scale:true c) -. 1.0))
    | None -> ());
    emit_probes (List.map (fun (r, (q : Load.request), _) -> (r, q.Load.input)) cold_runs)
  end;
  note_speed ();
  (List.length !responses, !failed)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage =
  "perf.exe --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE] \
   [--programs a,b] [--check-determinism]\n\
   workloads: batch-suite, compile-matrix, serve-steady, serve-drift"

(* Every domain of the run, the server's workers included, gets a 32 MB
   minor heap instead of the default 2 MB.  OCaml 5 stops all domains for
   each minor collection, and on the reference host waking an idle domain
   for one took 0.19 ms (median; 0.27 ms and up to 22 ms with two idle
   domains), a delay set by the host rather than by the code under test.
   serve-drift collected about 230 times a second with the default heap.
   A domain spawned later takes its heap size from OCAMLRUNPARAM, read at
   start-up only, so the process sets it and executes itself again once. *)
let minor_heap_words = 4 * 1024 * 1024

let with_minor_heap () =
  if (Gc.get ()).Gc.minor_heap_size <> minor_heap_words
     && Sys.getenv_opt "PERF_REEXEC" = None
  then begin
    Unix.putenv "PERF_REEXEC" "1";
    let prev = Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM") in
    Unix.putenv "OCAMLRUNPARAM"
      (Printf.sprintf "%ss=%d" (if prev = "" then "" else prev ^ ",") minor_heap_words);
    Unix.execv Sys.executable_name Sys.argv
  end

let () =
  with_minor_heap ();
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and trace_out = ref None and programs = ref None in
  let check_determinism = ref false in
  let bad fmt =
    Printf.ksprintf (fun s -> Printf.eprintf "perf: %s\n%s\n%!" s usage; exit 2) fmt
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match List.assoc_opt v workloads with
      | Some w -> workload := Some (v, w)
      | None -> bad "unknown workload %S" v);
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some n -> seed := Some n | None -> bad "bad seed %S" v);
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := Some s
      | _ -> bad "bad seconds %S" v);
      parse rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := false | "1" -> trace := true | _ -> bad "--trace takes 0 or 1");
      parse rest
    | "--trace-out" :: v :: rest ->
      trace_out := Some v;
      parse rest
    | "--programs" :: v :: rest ->
      programs := Some (String.split_on_char ',' v);
      parse rest
    | "--check-determinism" :: rest ->
      check_determinism := true;
      parse rest
    | a :: _ -> bad "unexpected argument %S" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  let (wname, w), seed, seconds =
    match (!workload, !seed, !seconds) with
    | Some w, Some n, Some s -> (w, n, s)
    | _ -> bad "--workload, --seed and --seconds are required"
  in
  let specs =
    match !programs with
    | None -> Workloads.Registry.all
    | Some names ->
      List.map
        (fun n -> try Workloads.Registry.find n with Not_found -> bad "unknown program %S" n)
        names
  in
  (* the run writes only under the checkout, in a directory of its own *)
  mkdirs scratch;
  at_exit (fun () ->
      rm_rf scratch;
      try Unix.rmdir scratch_parent with Unix.Unix_error _ -> ());
  let tmp = fresh_dir "tmp" in
  Unix.putenv "TMPDIR" tmp;
  Filename.set_temp_dir_name tmp;
  Sim.Native.set_default_cache_dir (Some (fresh_dir "native-default"));
  Printf.printf
    "# host nproc=%d ocaml=%s native=%b minor_heap_words=%d seed=%d workload=%s seconds=%g trace=%d\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version (Sim.Native.available ())
    (Gc.get ()).Gc.minor_heap_size seed
    wname seconds (if !trace then 1 else 0);
  let run () =
    match w with
    | Batch_suite | Compile_matrix ->
      batch w ~specs ~seconds ~trace:!trace ~check_determinism:!check_determinism
    | Serve_steady | Serve_drift ->
      serve w ~specs ~seed ~seconds ~trace:!trace ~check_determinism:!check_determinism
  in
  let attempted, failed =
    try run ()
    with e ->
      Printf.eprintf "perf: %s\n%!" (Printexc.to_string e);
      exit 1
  in
  (match !trace_out with
  | Some path when !trace -> Spans.write_chrome path (Spans.all ())
  | _ -> ());
  let wanted = if !trace then per_layer else end_to_end in
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name !metrics with
      | None -> fail "metric %s was not measured" name
      | Some (v, _) -> Printf.printf "%s %s %s\n" name (Bench_db.Json.to_string (number v)) unit)
    wanted;
  let correct = !failures = [] in
  let open Bench_db.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int (max failed (if correct then 0 else 1)));
            ( "metrics",
              Obj
                (List.map
                   (fun (name, unit) ->
                     let v =
                       match List.assoc_opt name !metrics with
                       | Some (v, _) -> v
                       | None -> 0.0
                     in
                     (name, Obj [ ("value", number v); ("unit", Str unit) ]))
                   wanted) );
          ]));
  if not correct then exit 1
