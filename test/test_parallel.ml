(* The bounded domain pool and the fault-tolerant execution layer:
   results must come back in input order whatever the schedule, a
   failing job must be attributable without discarding its siblings,
   watchdogs must contain runaway runs, retries must be bounded and
   seeded-deterministic, backend degradation must preserve observables,
   and every injected fault must be contained. *)

open Helpers

let test_map_ordering () =
  let xs = List.init 100 Fun.id in
  List.iter
    (fun domains ->
      let ys = Driver.Pool.map ~domains (fun x -> x * x) xs in
      Alcotest.(check (list int))
        (Printf.sprintf "squares on %d domains" domains)
        (List.map (fun x -> x * x) xs)
        ys)
    [ 1; 2; 4; 7 ]

let test_map_uneven_work () =
  (* skew the per-item cost so late items finish before early ones *)
  let xs = List.init 40 (fun i -> 40 - i) in
  let f n =
    let acc = ref 0 in
    for i = 1 to n * 10_000 do
      acc := (!acc + i) land 0xFFFF
    done;
    (n, !acc land 0)
  in
  let ys = Driver.Pool.map ~domains:4 f xs in
  Alcotest.(check (list int)) "input order kept" xs (List.map fst ys)

let test_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Driver.Pool.map ~domains:4 Fun.id []);
  Alcotest.(check (list int))
    "singleton" [ 9 ]
    (Driver.Pool.map ~domains:4 Fun.id [ 9 ])

exception Boom of int

let test_map_exception () =
  (* several items fail; the first failure in input order is re-raised,
     wrapped so the job is attributable *)
  let f x = if x mod 10 = 3 then raise (Boom x) else x in
  (match Driver.Pool.map ~domains:4 f (List.init 50 Fun.id) with
  | _ -> Alcotest.fail "expected Job_error"
  | exception Driver.Pool.Job_error (i, _, Boom n) ->
    check_int "first failing index" 3 i;
    check_int "original exception payload" 3 n);
  (* the trap exception type used by the simulator survives inside the
     wrapper too *)
  match
    Driver.Pool.map ~domains:2
      ~label:(fun i _ -> Printf.sprintf "item-%d" i)
      (fun x -> if x = 1 then raise (Sim.Machine.Trap "t") else x)
      [ 0; 1 ]
  with
  | _ -> Alcotest.fail "expected Job_error"
  | exception Driver.Pool.Job_error (i, label, Sim.Machine.Trap m) ->
    check_int "failing index" 1 i;
    check_output "label" "item-1" label;
    check_output "trap message" "t" m

let test_default_domains_env () =
  let saved = Sys.getenv_opt "BROMC_DOMAINS" in
  Unix.putenv "BROMC_DOMAINS" "3";
  check_int "env override" 3 (Driver.Pool.default_domains ());
  Unix.putenv "BROMC_DOMAINS" "garbage";
  check_int "bad env falls back to 1" 1 (Driver.Pool.default_domains ());
  (* the invalid-value warning is emitted once, not per call *)
  check_int "still 1 on repeat" 1 (Driver.Pool.default_domains ());
  Unix.putenv "BROMC_DOMAINS" (match saved with Some s -> s | None -> "")

(* ------------------------------------------------------------------ *)
(* Guard: retries, backoff determinism, classification                 *)
(* ------------------------------------------------------------------ *)

let test_guard_retry_determinism () =
  let policy =
    { Driver.Guard.default with Driver.Guard.retries = 3; backoff_ms = 5;
      seed = 42 }
  in
  let schedule () =
    List.init 3 (fun a ->
        Driver.Guard.backoff_ms policy ~index:7 ~attempt:(a + 1))
  in
  Alcotest.(check (list int))
    "same seed, same backoff schedule" (schedule ()) (schedule ());
  (match schedule () with
  | [ a; b; c ] ->
    check_bool "exponential growth" true (a < b && b < c);
    check_bool "jitter bounded by one base unit" true
      (a >= 5 && a < 10 && b >= 10 && b < 15 && c >= 20 && c < 25)
  | _ -> Alcotest.fail "expected three delays");
  (* a transiently-failing job recovers within the retry budget *)
  let calls = ref 0 in
  let out, meta =
    Driver.Guard.protect ~index:3 policy (fun ~attempt ~cancel:_ ->
        incr calls;
        if attempt <= 2 then raise (Boom attempt) else 99)
  in
  (match out with
  | Driver.Pool.Ok v -> check_int "recovered value" 99 v
  | _ -> Alcotest.fail "expected recovery");
  check_int "three attempts" 3 meta.Driver.Guard.m_attempts;
  check_int "job called once per attempt" 3 !calls;
  check_int "one error line per failed attempt" 2
    (List.length meta.Driver.Guard.m_errors)

let test_guard_bounded_and_final () =
  let policy =
    { Driver.Guard.default with Driver.Guard.retries = 2; backoff_ms = 0 }
  in
  (* a persistent crash exhausts the budget: retries + 1 attempts *)
  let out, meta =
    Driver.Guard.protect policy (fun ~attempt ~cancel:_ -> raise (Boom attempt))
  in
  (match out with
  | Driver.Pool.Gave_up { attempts; _ } -> check_int "gave up after" 3 attempts
  | _ -> Alcotest.fail "expected Gave_up");
  check_int "attempts bounded" 3 meta.Driver.Guard.m_attempts;
  (* a crash with no retry budget is a plain Crash *)
  let out, meta =
    Driver.Guard.protect
      { policy with Driver.Guard.retries = 0 }
      (fun ~attempt:_ ~cancel:_ -> raise (Boom 0))
  in
  (match out with
  | Driver.Pool.Crash _ -> ()
  | _ -> Alcotest.fail "expected Crash");
  check_int "single attempt" 1 meta.Driver.Guard.m_attempts;
  (* traps are deterministic: never retried, whatever the budget *)
  let calls = ref 0 in
  let out, meta =
    Driver.Guard.protect policy (fun ~attempt:_ ~cancel:_ ->
        incr calls;
        raise (Sim.Runtime.Trap "deterministic"))
  in
  (match out with
  | Driver.Pool.Trap m -> check_output "trap kept" "deterministic" m
  | _ -> Alcotest.fail "expected Trap");
  check_int "trap not retried" 1 meta.Driver.Guard.m_attempts;
  check_int "job ran once" 1 !calls

(* ------------------------------------------------------------------ *)
(* Watchdog: a runaway job is cancelled and classified as a timeout     *)
(* ------------------------------------------------------------------ *)

let spin_src =
  "int main() { int i = 0; while (i >= 0) { i = i + 1; if (i > 100000) { i = \
   1; } } return 0; }"

let test_watchdog_timeout () =
  let job =
    Driver.Pipeline.job ~name:"spin" ~source:spin_src ~training_input:""
      ~test_input:"" ()
  in
  let policy =
    { Driver.Guard.default with Driver.Guard.timeout_ms = Some 50 }
  in
  let o = Driver.Pipeline.run_guarded_job ~index:0 ~policy job in
  (match o.Driver.Pipeline.o_outcome with
  | Driver.Pool.Timeout ms -> check_int "deadline reported" 50 ms
  | out ->
    Alcotest.failf "expected Timeout, got %s" (Driver.Pool.outcome_status out));
  check_int "one attempt (timeouts are final)" 1 o.Driver.Pipeline.o_attempts;
  check_bool "not degraded (timeouts are backend-independent)" false
    o.Driver.Pipeline.o_degraded

(* ------------------------------------------------------------------ *)
(* Manifest: JSON-lines write/read round trip                           *)
(* ------------------------------------------------------------------ *)

let test_manifest_roundtrip () =
  let entries =
    [
      Driver.Manifest.entry ~label:"a \"quoted\"\nlabel" ~message:"tab\there"
        ~attempts:3 ~retried:2 ~backend:"compiled" ~degraded:true
        ~injected:"raise" ~wall_ms:12.5 ~id:0 ~status:"crash" ();
      Driver.Manifest.entry ~id:7 ~status:"ok" ();
    ]
  in
  let path = Filename.temp_file "bromc_manifest" ".json" in
  Driver.Manifest.write path entries;
  let back = Driver.Manifest.read path in
  Sys.remove path;
  check_bool "round trip preserves every field" true (back = entries);
  (* incremental writes survive without a close (flushed per line) *)
  let path = Filename.temp_file "bromc_manifest" ".json" in
  let w = Driver.Manifest.create path in
  Driver.Manifest.add w (List.hd entries);
  let partial = Driver.Manifest.read path in
  Driver.Manifest.close w;
  Sys.remove path;
  check_int "entry readable before close" 1 (List.length partial);
  check_bool "ok predicate" true
    (Driver.Manifest.ok (Driver.Manifest.entry ~id:0 ~status:"ok" ()));
  check_bool "non-ok predicate" false
    (Driver.Manifest.ok (Driver.Manifest.entry ~id:0 ~status:"timeout" ()))

(* ------------------------------------------------------------------ *)
(* Inject: seeded fault plans                                           *)
(* ------------------------------------------------------------------ *)

let test_inject_plan () =
  let p1 = Driver.Inject.plan ~seed:5 ~jobs:50 ~count:12 in
  let p2 = Driver.Inject.plan ~seed:5 ~jobs:50 ~count:12 in
  check_bool "deterministic in the seed" true (p1 = p2);
  check_int "requested count" 12 (List.length p1);
  let victims = List.map (fun f -> f.Driver.Inject.i_job) p1 in
  check_int "distinct victims" 12 (List.length (List.sort_uniq compare victims));
  check_bool "victims in range" true (List.for_all (fun j -> j >= 0 && j < 50) victims);
  List.iter
    (fun k ->
      check_bool
        (Printf.sprintf "kind %s present" (Driver.Inject.kind_name k))
        true
        (List.exists (fun f -> f.Driver.Inject.i_kind = k) p1))
    Driver.Inject.all_kinds;
  check_int "count clamped to job count" 10
    (List.length (Driver.Inject.plan ~seed:5 ~jobs:10 ~count:100));
  check_int "no jobs, no faults" 0
    (List.length (Driver.Inject.plan ~seed:5 ~jobs:0 ~count:3))

(* ------------------------------------------------------------------ *)
(* Containment certification: >= 200 seeded faults, zero escapes        *)
(* ------------------------------------------------------------------ *)

(* enough dynamic instructions (~60 loop iterations) that an injected
   64-instruction fuel budget is guaranteed to exhaust *)
let tiny_src =
  "int main() { int i = 0; int s = 0; while (i < 60) { s = s + i; i = i + 1; \
   } print_int(s); return 0; }"

let tiny_output = "1770"  (* sum 0..59 *)

let test_fault_containment_certification () =
  let n = 220 and faults_n = 200 in
  let jobs =
    List.init n (fun i ->
        Driver.Pipeline.job
          ~name:(Printf.sprintf "j%03d" i)
          ~source:tiny_src ~training_input:"" ~test_input:"" ())
  in
  let faults = Driver.Inject.plan ~seed:11 ~jobs:n ~count:faults_n in
  check_int "fault budget" faults_n (List.length faults);
  let policy =
    { Driver.Guard.default with Driver.Guard.retries = 2; backoff_ms = 0;
      degrade = true }
  in
  let outcomes =
    Driver.Pipeline.run_jobs_guarded ~domains:4 ~policy ~inject:faults jobs
  in
  check_int "no outcome lost" n (List.length outcomes);
  let escapes = ref [] and contained = ref 0 in
  List.iteri
    (fun i (o : Driver.Pipeline.job_outcome) ->
      check_int "outcomes in job order" i o.Driver.Pipeline.o_index;
      let ok = Driver.Pool.outcome_ok o.Driver.Pipeline.o_outcome in
      match Driver.Inject.find faults ~job:i with
      | None ->
        (* sibling of 200 faults: must be untouched *)
        if not ok then
          escapes := Printf.sprintf "sibling %d lost" i :: !escapes;
        (match o.Driver.Pipeline.o_outcome with
        | Driver.Pool.Ok r ->
          check_output "sibling output intact" tiny_output
            r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_output
        | _ -> ());
        check_output "sibling not attributed" "" o.Driver.Pipeline.o_injected
      | Some f ->
        (* victim: the fault must leave a trace — recovery evidence or a
           non-ok outcome attributed to this job in the manifest *)
        incr contained;
        check_output "victim attributed"
          (Driver.Inject.kind_name f.Driver.Inject.i_kind)
          o.Driver.Pipeline.o_injected;
        let e = Driver.Pipeline.manifest_of_outcome o in
        check_int "manifest id" i e.Driver.Manifest.e_id;
        check_bool "manifest attribution" true
          (e.Driver.Manifest.e_injected <> "");
        if ok then begin
          (if o.Driver.Pipeline.o_retried = 0 && not o.Driver.Pipeline.o_degraded
           then
             escapes :=
               Printf.sprintf "fault on %d left no trace" i :: !escapes);
          (* recovered jobs still produce the right answer *)
          match o.Driver.Pipeline.o_outcome with
          | Driver.Pool.Ok r ->
            check_output "recovered output correct" tiny_output
              r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_output
          | _ -> ()
        end)
    outcomes;
  check_int "every fault accounted for" faults_n !contained;
  if !escapes <> [] then
    Alcotest.failf "%d escapes: %s" (List.length !escapes)
      (String.concat "; " !escapes)

(* ------------------------------------------------------------------ *)
(* Backend degradation preserves observables on the real workloads      *)
(* ------------------------------------------------------------------ *)

(* the results of guarded jobs that must all succeed, in job order *)
let run_all ~domains jobs =
  List.map
    (fun (o : Driver.Pipeline.job_outcome) ->
      match o.Driver.Pipeline.o_outcome with
      | Driver.Pool.Ok r -> r
      | out ->
        Alcotest.failf "%s: %s" o.Driver.Pipeline.o_name
          (Driver.Pool.outcome_message out))
    (Driver.Pipeline.run_jobs_guarded ~domains jobs)

let test_backend_fallback_observables () =
  let trunc s = String.sub s 0 (min 3000 (String.length s)) in
  let jobs =
    List.map
      (fun (w : Workloads.Spec.t) ->
        Driver.Pipeline.job ~name:w.Workloads.Spec.name
          ~source:w.Workloads.Spec.source
          ~training_input:(trunc (Lazy.force w.Workloads.Spec.training_input))
          ~test_input:(trunc (Lazy.force w.Workloads.Spec.test_input))
          ())
      Workloads.Registry.all
  in
  let clean = run_all ~domains:4 jobs in
  (* corrupt every job's compiled-backend result: each must fall back to
     the reference interpreter and reproduce the clean observables *)
  let faults =
    List.mapi
      (fun i _ ->
        { Driver.Inject.i_job = i; i_kind = Driver.Inject.Corrupt;
          i_transient = false })
      jobs
  in
  let policy =
    { Driver.Guard.default with Driver.Guard.backoff_ms = 0; degrade = true }
  in
  let outcomes =
    Driver.Pipeline.run_jobs_guarded ~domains:4 ~policy ~inject:faults jobs
  in
  List.iter2
    (fun (c : Driver.Pipeline.result) (o : Driver.Pipeline.job_outcome) ->
      match o.Driver.Pipeline.o_outcome with
      | Driver.Pool.Ok r ->
        check_bool (o.Driver.Pipeline.o_name ^ ": degraded") true
          o.Driver.Pipeline.o_degraded;
        check_output
          (o.Driver.Pipeline.o_name ^ ": fallback backend")
          "reference" o.Driver.Pipeline.o_backend;
        List.iter
          (fun (what, of_version) ->
            check_output
              (o.Driver.Pipeline.o_name ^ ": " ^ what)
              (of_version c.Driver.Pipeline.r_reordered)
              (of_version r.Driver.Pipeline.r_reordered))
          [
            ("output byte-identical", fun v -> v.Driver.Pipeline.v_output);
            ( "exit code identical",
              fun v -> string_of_int v.Driver.Pipeline.v_exit_code );
            ( "dynamic insns identical",
              fun v ->
                string_of_int v.Driver.Pipeline.v_counters.Sim.Counters.insns );
          ]
      | out ->
        Alcotest.failf "%s: not recovered (%s)" o.Driver.Pipeline.o_name
          (Driver.Pool.outcome_status out))
    clean outcomes

(* a parallel run of pipeline jobs equals the sequential run, job order
   preserved *)
let test_run_jobs_deterministic () =
  let workloads = [ "wc"; "hyphen"; "deroff" ] in
  let jobs =
    List.map
      (fun name ->
        let w = Workloads.Registry.find name in
        Driver.Pipeline.job ~name
          ~source:w.Workloads.Spec.source
          ~training_input:(Lazy.force w.Workloads.Spec.training_input)
          ~test_input:(Lazy.force w.Workloads.Spec.test_input)
          ())
      workloads
  in
  let seq = run_all ~domains:1 jobs in
  let par = run_all ~domains:3 jobs in
  Alcotest.(check (list string))
    "sequential order" workloads
    (List.map (fun (r : Driver.Pipeline.result) -> r.Driver.Pipeline.r_name) seq);
  List.iter2
    (fun (a : Driver.Pipeline.result) (b : Driver.Pipeline.result) ->
      check_output "name" a.Driver.Pipeline.r_name b.Driver.Pipeline.r_name;
      check_int
        (a.Driver.Pipeline.r_name ^ ": reordered insns")
        a.Driver.Pipeline.r_reordered.Driver.Pipeline.v_counters
          .Sim.Counters.insns
        b.Driver.Pipeline.r_reordered.Driver.Pipeline.v_counters
          .Sim.Counters.insns;
      check_output
        (a.Driver.Pipeline.r_name ^ ": output")
        a.Driver.Pipeline.r_reordered.Driver.Pipeline.v_output
        b.Driver.Pipeline.r_reordered.Driver.Pipeline.v_output)
    seq par

let test_on_stage_hook () =
  let stages = ref [] in
  let w = Workloads.Registry.find "wc" in
  let _ =
    Driver.Pipeline.run ~name:"wc"
      ~on_stage:(fun label seconds ->
        check_bool "stage time non-negative" true (seconds >= 0.0);
        stages := label :: !stages)
      ~source:w.Workloads.Spec.source
      ~training_input:(Lazy.force w.Workloads.Spec.training_input)
      ~test_input:(Lazy.force w.Workloads.Spec.test_input)
      ()
  in
  Alcotest.(check (list string))
    "stage sequence"
    [ "compile"; "detect"; "train"; "reorder"; "cleanup"; "measure" ]
    (List.rev !stages)

let suite =
  [
    case "map keeps input order" test_map_ordering;
    case "map keeps order under uneven work" test_map_uneven_work;
    case "map on empty and singleton lists" test_map_empty_and_singleton;
    case "map wraps the first error in Job_error" test_map_exception;
    case "BROMC_DOMAINS overrides the domain count" test_default_domains_env;
    case "guard retries are seeded-deterministic" test_guard_retry_determinism;
    case "guard retries are bounded; traps are final" test_guard_bounded_and_final;
    case "manifest JSON-lines round trip" test_manifest_roundtrip;
    case "fault plans are seeded and cover all kinds" test_inject_plan;
    slow_case "watchdog cancels a runaway job as a timeout" test_watchdog_timeout;
    slow_case "200 injected faults, zero escapes, siblings intact"
      test_fault_containment_certification;
    slow_case "backend fallback preserves workload observables"
      test_backend_fallback_observables;
    case "pipeline stage hook fires in order" test_on_stage_hook;
    slow_case "parallel run_jobs equals sequential" test_run_jobs_deterministic;
  ]
