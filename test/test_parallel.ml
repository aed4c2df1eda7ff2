(* The bounded domain pool and the fault-tolerant execution layer:
   results must come back in input order whatever the schedule, a
   failing job must be attributable without discarding its siblings,
   watchdogs must contain runaway runs, a crash must be final on its
   rung, backend degradation must preserve observables, and every
   injected fault must be contained. *)

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
  (* several items fail; the first failure in input order is re-raised
     as it was raised, whatever the schedule *)
  let f x = if x mod 10 = 3 then raise (Boom x) else x in
  (match Driver.Pool.map ~domains:4 f (List.init 50 Fun.id) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom n -> check_int "first failing item" 3 n);
  (* the trap exception type used by the simulator comes back as is *)
  match
    Driver.Pool.map ~domains:2
      (fun x -> if x = 1 then raise (Sim.Machine.Trap "t") else x)
      [ 0; 1 ]
  with
  | _ -> Alcotest.fail "expected Trap"
  | exception Sim.Machine.Trap m -> check_output "trap message" "t" m

let test_both_joins () =
  let finished = Atomic.make false in
  let slow () =
    let acc = ref 0 in
    for i = 1 to 2_000_000 do
      acc := (!acc + i) land 0xFFFF
    done;
    Atomic.set finished true;
    !acc land 0
  in
  Alcotest.(check (pair int string))
    "both results" (0, "g")
    (Driver.Pool.both slow (fun () -> "g"));
  Atomic.set finished false;
  (match Driver.Pool.both slow (fun () -> raise (Boom 1)) with
  | _ -> Alcotest.fail "the caller's exception was lost"
  | exception Boom 1 -> ());
  check_bool "joined before the caller's exception left" true
    (Atomic.get finished);
  match Driver.Pool.both (fun () -> raise (Boom 2)) (fun () -> ()) with
  | _ -> Alcotest.fail "the spawned domain's exception was lost"
  | exception Boom 2 -> ()

(* a worker of a pool with one domain per core runs [both] inline: a
   third domain would only take a core from its sibling.  Outside a
   pool, or in a pool smaller than the host, [both] still spawns *)
let test_both_inline_in_full_pool () =
  let halves () =
    Driver.Pool.both (fun () -> Domain.self ()) (fun () -> Domain.self ())
  in
  let a, b = halves () in
  check_bool "outside a pool the halves run on two domains" true (a <> b);
  let full = Domain.recommended_domain_count () <= 2 in
  List.iter
    (fun (a, b) ->
      check_bool
        (if full then "a full pool's worker runs both halves itself"
         else "a pool smaller than the host still spawns")
        full (a = b))
    (Driver.Pool.map ~domains:2 (fun () -> halves ()) [ (); () ])

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
(* Guard: classification and the ladder                                 *)
(* ------------------------------------------------------------------ *)

let test_guard_crash_and_trap_final () =
  let config =
    { Driver.Config.default with Driver.Config.backend = `Compiled }
  in
  let run policy f =
    let calls = ref 0 in
    let backend, out, meta =
      Driver.Guard.ladder policy config (fun ~backend:_ ~cancel:_ ->
          incr calls;
          f ())
    in
    (Sim.Machine.backend_name backend, out, meta, !calls)
  in
  (* without degradation a crash is final on its rung: one attempt *)
  let backend, out, meta, calls =
    run Driver.Guard.default (fun () -> raise (Boom 0))
  in
  (match out with
  | Driver.Pool.Crash _ -> ()
  | _ -> Alcotest.fail "expected Crash");
  check_output "rung kept" "compiled" backend;
  check_int "single attempt" 1 meta.Driver.Guard.m_attempts;
  check_int "job ran once" 1 calls;
  check_int "one error line" 1 (List.length meta.Driver.Guard.m_errors);
  (* with degradation a crash moves down a rung, once per rung *)
  let degrade = { Driver.Guard.default with Driver.Guard.degrade = true } in
  let backend, out, meta, calls = run degrade (fun () -> raise (Boom 0)) in
  (match out with
  | Driver.Pool.Crash _ -> ()
  | _ -> Alcotest.fail "expected Crash");
  check_output "last rung" "reference" backend;
  check_int "one attempt per rung" 2 meta.Driver.Guard.m_attempts;
  check_int "job ran once per rung" 2 calls;
  Alcotest.(check (list bool))
    "error lines name their rung" [ true; true ]
    (List.map2 contains_substring meta.Driver.Guard.m_errors
       [ "(compiled)"; "(reference)" ]);
  (* traps are deterministic: final on the first rung, whatever is left *)
  let backend, out, meta, calls =
    run degrade (fun () -> raise (Sim.Runtime.Trap "deterministic"))
  in
  (match out with
  | Driver.Pool.Trap m -> check_output "trap kept" "deterministic" m
  | _ -> Alcotest.fail "expected Trap");
  check_output "trap not degraded" "compiled" backend;
  check_int "trap not retried" 1 meta.Driver.Guard.m_attempts;
  check_int "job ran once" 1 calls

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

(* A job measures its original on a second domain, and both domains
   poll the job's one watchdog.  The program spins only on the test
   input, so training ends and both measurements spin: the job must end
   as a timeout well before the fuel would run out, which needs both
   domains to stop, and the process must still run a job after it. *)
let spin_on_t_src =
  "int main() { int c = getchar(); int i = 0; if (c == 116) { while (i >= \
   0) { i = i + 1; if (i > 100000) { i = 1; } } } print_int(c); return 0; }"

let test_watchdog_stops_both_domains () =
  let config =
    { Driver.Config.default with Driver.Config.fuel = 2_000_000_000 }
  in
  let job test_input =
    Driver.Pipeline.job ~config ~name:"spin" ~source:spin_on_t_src
      ~training_input:"" ~test_input ()
  in
  let policy =
    { Driver.Guard.default with Driver.Guard.timeout_ms = Some 50 }
  in
  let o = Driver.Pipeline.run_guarded_job ~index:0 ~policy (job "t") in
  (match o.Driver.Pipeline.o_outcome with
  | Driver.Pool.Timeout ms -> check_int "deadline reported" 50 ms
  | out ->
    Alcotest.failf "expected Timeout, got %s" (Driver.Pool.outcome_status out));
  (* 2e9 instructions take seconds on either domain *)
  check_bool "both domains stopped at the deadline" true
    (o.Driver.Pipeline.o_seconds < 1.0);
  let policy =
    { Driver.Guard.default with Driver.Guard.timeout_ms = Some 30_000 }
  in
  let o = Driver.Pipeline.run_guarded_job ~index:1 ~policy (job "x") in
  match o.Driver.Pipeline.o_outcome with
  | Driver.Pool.Ok r ->
    check_output "the next job runs" "120"
      r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_output
  | out ->
    Alcotest.failf "expected the next job to succeed, got %s: %s"
      (Driver.Pool.outcome_status out)
      (Driver.Pool.outcome_message out)

(* ------------------------------------------------------------------ *)
(* Failure precedence across the pipeline's two domains                 *)
(* ------------------------------------------------------------------ *)

(* after a loop (longer than the 64 instructions of a [Fuel] fault) it
   divides by zero on a first byte of [d] and reads out of bounds on
   [t]; any other input ends cleanly *)
let trap_src =
  "int a[2]; int main() { int c = getchar(); int s = 0; int i = 0; while \
   (i < 50) { s = s + i; i = i + 1; } print_int(s); if (c == 116) return \
   a[c]; return 100 / (c - 100); }"

(* The first failure in sequential order wins, whichever domain meets
   it: each row is (status, message, attempts, error lines) of
   [run_guarded_job] as recorded with the original measured after the
   reordered version's training, on the same domain. *)
let test_failure_precedence () =
  let job ~training_input ~test_input =
    Driver.Pipeline.job ~name:"traps" ~source:trap_src ~training_input
      ~test_input ()
  in
  let clean = job ~training_input:"x" ~test_input:"y" in
  let rows =
    [
      ( "the original traps on its test input",
        job ~training_input:"x" ~test_input:"t",
        None,
        ( "trap",
          "out-of-bounds access a[116] (size 2)",
          1,
          [ "attempt 1 (compiled): trap: out-of-bounds access a[116] (size 2)" ]
        ) );
      ( "training and the original trap: training wins",
        job ~training_input:"d" ~test_input:"t",
        None,
        ( "trap",
          "division by zero",
          1,
          [ "attempt 1 (compiled): trap: division by zero" ] ) );
    ]
    @ List.map
        (fun kind ->
          ( "injected " ^ Driver.Inject.kind_name kind,
            clean,
            Some { Driver.Inject.i_job = 0; i_kind = kind },
            match kind with
            | Driver.Inject.Raise ->
              ( "ok",
                "",
                2,
                [ "attempt 1 (compiled): Driver.Inject.Injected(0)" ] )
            | Driver.Inject.Trap ->
              ( "trap",
                "injected trap (job 0)",
                1,
                [ "attempt 1 (compiled): trap: injected trap (job 0)" ] )
            | Driver.Inject.Fuel ->
              ( "trap",
                "fuel exhausted (64 instructions)",
                1,
                [
                  "attempt 1 (compiled): trap: fuel exhausted (64 \
                   instructions)";
                ] )
            | Driver.Inject.Deadline ->
              ( "timeout",
                "run cancelled by watchdog",
                1,
                [ "attempt 1 (compiled): run cancelled by watchdog" ] )
            | Driver.Inject.Corrupt ->
              ( "ok",
                "",
                2,
                [
                  "attempt 1 (compiled): Driver.Pipeline.Wrong_result(\"traps: \
                   reordered observables diverge from original\")";
                ] ) ))
        Driver.Inject.all_kinds
  in
  let policy = { Driver.Guard.default with Driver.Guard.degrade = true } in
  List.iter
    (fun (label, j, fault, (status, message, attempts, errors)) ->
      let o = Driver.Pipeline.run_guarded_job ?fault ~index:0 ~policy j in
      check_output (label ^ ": status") status
        (Driver.Pool.outcome_status o.Driver.Pipeline.o_outcome);
      check_output (label ^ ": message") message
        (Driver.Pool.outcome_message o.Driver.Pipeline.o_outcome);
      check_int (label ^ ": attempts") attempts o.Driver.Pipeline.o_attempts;
      Alcotest.(check (list string))
        (label ^ ": errors") errors o.Driver.Pipeline.o_errors)
    rows

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

(* the exact victims and kinds of three plans: CI's injection smoke and
   chaos replay are seeded, so a change to the draw moves their faults *)
let test_inject_plans_pinned () =
  let pairs p =
    List.map
      (fun f ->
        ( f.Driver.Inject.i_job,
          Driver.Inject.kind_name f.Driver.Inject.i_kind ))
      p
  in
  Alcotest.(check (list (pair int string)))
    "plan seed 42, 7 of 7"
    [ (4, "raise"); (2, "trap"); (0, "fuel"); (6, "deadline"); (1, "corrupt");
      (3, "raise"); (5, "trap") ]
    (pairs (Driver.Inject.plan ~seed:42 ~jobs:7 ~count:7));
  let p = Driver.Inject.plan ~seed:11 ~jobs:220 ~count:200 in
  Alcotest.(check (list int))
    "plan seed 11, 200 of 220: victims"
    [
      107; 97; 27; 58; 103; 181; 25; 40; 195; 139; 79; 71; 4; 105; 41; 142;
      91; 61; 1; 39; 63; 121; 113; 186; 11; 147; 101; 30; 151; 179; 209; 167;
      99; 20; 141; 55; 95; 174; 34; 70; 219; 190; 89; 0; 183; 85; 45; 17; 29;
      163; 123; 54; 111; 146; 137; 192; 10; 56; 211; 177; 44; 102; 193; 42;
      171; 98; 127; 191; 31; 200; 161; 33; 48; 159; 49; 104; 199; 57; 24;
      148; 74; 188; 72; 96; 135; 87; 189; 198; 60; 184; 187; 15; 28; 175;
      165; 208; 3; 90; 59; 130; 92; 82; 67; 201; 203; 18; 65; 86; 68; 125;
      50; 160; 84; 22; 64; 152; 66; 133; 119; 172; 83; 131; 73; 214; 100; 37;
      12; 169; 80; 126; 38; 120; 122; 176; 185; 129; 207; 215; 145; 210; 88;
      156; 47; 8; 16; 140; 173; 182; 136; 134; 26; 166; 76; 164; 13; 150; 51;
      114; 116; 112; 7; 212; 53; 14; 32; 149; 155; 204; 143; 205; 115; 216;
      153; 94; 132; 117; 138; 162; 217; 197; 118; 93; 43; 69; 180; 52; 124;
      194; 78; 213; 178; 77; 144; 106; 128; 6; 81; 36; 168; 157;
    ]
    (List.map (fun f -> f.Driver.Inject.i_job) p);
  Alcotest.(check (list string))
    "plan seed 11, 200 of 220: kinds cycled"
    (List.init 200 (fun i ->
         Driver.Inject.kind_name (List.nth Driver.Inject.all_kinds (i mod 5))))
    (List.map snd (pairs p));
  Alcotest.(check (list (pair int string)))
    "server plan seed 7, 5 of 200"
    [ (3, "stall"); (23, "tear_record"); (105, "corrupt_artifact");
      (119, "kill_worker"); (134, "truncate_artifact") ]
    (List.map
       (fun f ->
         ( f.Driver.Inject.sv_request,
           Driver.Inject.server_kind_name f.Driver.Inject.sv_kind ))
       (Driver.Inject.server_plan ~seed:7 ~requests:200 ~count:5))

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
  let policy = { Driver.Guard.default with Driver.Guard.degrade = true } in
  let outcomes =
    Driver.Pipeline.run_jobs_guarded ~domains:4 ~policy ~inject:faults jobs
  in
  check_int "no outcome lost" n (List.length outcomes);
  let contained = ref 0 in
  List.iteri
    (fun i (o : Driver.Pipeline.job_outcome) ->
      check_int "outcomes in job order" i o.Driver.Pipeline.o_index;
      let ok = Driver.Pool.outcome_ok o.Driver.Pipeline.o_outcome in
      match Driver.Inject.find faults ~job:i with
      | None ->
        (* sibling of 200 faults: must be untouched *)
        (match o.Driver.Pipeline.o_outcome with
        | Driver.Pool.Ok r ->
          check_output "sibling output intact" tiny_output
            r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_output
        | _ -> ());
        check_output "sibling not attributed" "" o.Driver.Pipeline.o_injected
      | Some f ->
        (* victim: the fault must leave a trace — degradation or a
           non-ok outcome attributed to this job *)
        incr contained;
        check_int "victim index" f.Driver.Inject.i_job
          o.Driver.Pipeline.o_index;
        check_output "victim attributed"
          (Driver.Inject.kind_name f.Driver.Inject.i_kind)
          o.Driver.Pipeline.o_injected;
        if ok then begin
          (* the ladder is the one recovery path: down to the oracle *)
          check_output "recovered on the last rung" "reference"
            o.Driver.Pipeline.o_backend;
          (* recovered jobs still produce the right answer *)
          match o.Driver.Pipeline.o_outcome with
          | Driver.Pool.Ok r ->
            check_output "recovered output correct" tiny_output
              r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_output
          | _ -> ()
        end)
    outcomes;
  check_int "every fault accounted for" faults_n !contained;
  let c = Driver.Pipeline.containment faults outcomes in
  match c.Driver.Pipeline.c_escapes @ c.Driver.Pipeline.c_collateral with
  | [] -> ()
  | lost ->
    Alcotest.failf "%d escapes: %s" (List.length lost) (String.concat "; " lost)

(* [suite --inject]'s printed verdict is the run's only record, so it
   must see each way a fault can go wrong: a victim that ends ok on its
   own rung left no trace (an escape), and a sibling that fails without
   a fault is collateral.  Outcomes of a clean run, edited into each
   case by hand. *)
let test_containment_flags_escape_and_collateral () =
  let jobs =
    List.init 5 (fun i ->
        Driver.Pipeline.job
          ~name:(Printf.sprintf "j%d" i)
          ~source:tiny_src ~training_input:"" ~test_input:"" ())
  in
  let clean = Driver.Pipeline.run_jobs_guarded ~domains:1 jobs in
  let fault i_job i_kind = { Driver.Inject.i_job; i_kind } in
  let faults =
    [ fault 0 Driver.Inject.Raise; fault 1 Driver.Inject.Trap;
      fault 3 Driver.Inject.Corrupt ]
  in
  let outcomes =
    List.map
      (fun (o : Driver.Pipeline.job_outcome) ->
        match o.Driver.Pipeline.o_index with
        | 0 -> { o with Driver.Pipeline.o_injected = "raise" }
        | 1 ->
          { o with
            Driver.Pipeline.o_injected = "trap";
            o_outcome = Driver.Pool.Trap "injected trap" }
        | 2 ->
          { o with
            Driver.Pipeline.o_outcome =
              Driver.Pool.Crash (Driver.Pool.exn_info (Failure "boom")) }
        | 3 ->
          { o with
            Driver.Pipeline.o_injected = "corrupt";
            o_degraded = true;
            o_backend = "reference" }
        | _ -> o)
      clean
  in
  let c = Driver.Pipeline.containment faults outcomes in
  check_int "planted" 3 c.Driver.Pipeline.c_planted;
  check_int "recovered" 2 c.Driver.Pipeline.c_recovered;
  check_int "contained failures" 1 c.Driver.Pipeline.c_contained;
  (match c.Driver.Pipeline.c_escapes with
  | [ e ] -> check_bool "escape names job 0" true (contains_substring e "job 0")
  | es -> Alcotest.failf "expected one escape, got %d" (List.length es));
  match c.Driver.Pipeline.c_collateral with
  | [ e ] ->
    check_bool "collateral names job 2" true (contains_substring e "job 2")
  | es -> Alcotest.failf "expected one collateral, got %d" (List.length es)

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
        { Driver.Inject.i_job = i; i_kind = Driver.Inject.Corrupt })
      jobs
  in
  let policy = { Driver.Guard.default with Driver.Guard.degrade = true } in
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
    case "map re-raises the first error in input order" test_map_exception;
    case "both joins its domain on every path" test_both_joins;
    case "both runs inline on a worker of a full pool"
      test_both_inline_in_full_pool;
    case "BROMC_DOMAINS overrides the domain count" test_default_domains_env;
    case "a crash is final on its rung; traps are final"
      test_guard_crash_and_trap_final;
    case "fault plans are seeded and cover all kinds" test_inject_plan;
    case "fault plans match their recorded draws" test_inject_plans_pinned;
    slow_case "watchdog cancels a runaway job as a timeout" test_watchdog_timeout;
    slow_case "one watchdog stops both of a job's domains"
      test_watchdog_stops_both_domains;
    case "the first failure in sequential order wins" test_failure_precedence;
    slow_case "200 injected faults, zero escapes, siblings intact"
      test_fault_containment_certification;
    case "containment flags an escape and a collateral failure"
      test_containment_flags_escape_and_collateral;
    slow_case "backend fallback preserves workload observables"
      test_backend_fallback_observables;
    case "pipeline stage hook fires in order" test_on_stage_hook;
    slow_case "parallel run_jobs equals sequential" test_run_jobs_deterministic;
  ]
