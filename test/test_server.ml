(* The serving daemon: artifact caches, sharded online profiles,
   drift-triggered re-optimization, and the replay driver. *)

open Helpers

(* ---------------------------------------------------------------- *)
(* Artifact caches                                                   *)
(* ---------------------------------------------------------------- *)

let test_artifact_single_flight () =
  let cache : int Sim.Artifact.t =
    Sim.Artifact.create ~name:"t-singleflight" ()
  in
  let builds = Atomic.make 0 in
  let n = 4 in
  let barrier = Atomic.make 0 in
  let worker () =
    (* rendezvous so all domains hit the cold key together *)
    Atomic.incr barrier;
    while Atomic.get barrier < n do
      Domain.cpu_relax ()
    done;
    Sim.Artifact.find_or_build cache "k" (fun () ->
        Atomic.incr builds;
        Unix.sleepf 0.02;
        41 + Atomic.get builds)
  in
  let doms = List.init n (fun _ -> Domain.spawn worker) in
  let values = List.map Domain.join doms in
  check_int "build ran once" 1 (Atomic.get builds);
  List.iter (fun v -> check_int "all domains share the artifact" 42 v) values;
  let s = Sim.Artifact.stats cache in
  check_int "one miss (the builder)" 1 s.Sim.Artifact.a_misses;
  check_int "waiters and latecomers are hits" (n - 1) s.Sim.Artifact.a_hits;
  check_int "one build" 1 s.Sim.Artifact.a_builds;
  check_int "one entry resident" 1 s.Sim.Artifact.a_entries

let test_artifact_lru_eviction () =
  let cache : string Sim.Artifact.t =
    Sim.Artifact.create ~capacity:2 ~name:"t-lru" ()
  in
  let build v () = v in
  ignore (Sim.Artifact.find_or_build cache "a" (build "A"));
  ignore (Sim.Artifact.find_or_build cache "b" (build "B"));
  (* touch [a] so [b] is the least recently used *)
  check_bool "a resident" true (Sim.Artifact.find cache "a" <> None);
  ignore (Sim.Artifact.find_or_build cache "c" (build "C"));
  let s = Sim.Artifact.stats cache in
  check_int "capacity enforced" 2 s.Sim.Artifact.a_entries;
  check_int "one eviction" 1 s.Sim.Artifact.a_evictions;
  check_bool "LRU victim was b" true (Sim.Artifact.find cache "b" = None);
  check_bool "a survived" true (Sim.Artifact.find cache "a" <> None);
  check_bool "c resident" true (Sim.Artifact.find cache "c" <> None)

let test_artifact_failed_build_retries () =
  let cache : int Sim.Artifact.t = Sim.Artifact.create ~name:"t-fail" () in
  (match Sim.Artifact.find_or_build cache "k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "failed build must re-raise"
  | exception Failure m -> check_output "diagnostic preserved" "boom" m);
  let s = Sim.Artifact.stats cache in
  check_int "failure counted" 1 s.Sim.Artifact.a_failures;
  check_int "no artifact installed" 0 s.Sim.Artifact.a_entries;
  (* the key stayed cold: a later request builds fresh *)
  check_int "retry succeeds" 7
    (Sim.Artifact.find_or_build cache "k" (fun () -> 7));
  let s = Sim.Artifact.stats cache in
  check_int "successful build counted" 1 s.Sim.Artifact.a_builds;
  check_int "both attempts were misses" 2 s.Sim.Artifact.a_misses

(* ---------------------------------------------------------------- *)
(* Profile shards and predictor banks                                *)
(* ---------------------------------------------------------------- *)

let drift_config = Driver.Config.default

let drift_parts () =
  let base =
    Driver.Pipeline.compile_base drift_config Driver.Replay.drift_source
  in
  let seqs = Driver.Pipeline.detect_seqs drift_config base in
  check_bool "drift program has sequences" true (seqs <> []);
  let train, table = Driver.Pipeline.instrument drift_config base seqs in
  (base, seqs, train, table)

let test_profile_shard_absorb () =
  let _, _, train, table = drift_parts () in
  let shard = Sim.Profile.copy_shape table in
  check_int "shard starts empty" 0 (Sim.Profile.total_executions shard);
  let input = Driver.Replay.drift_input ~phase:0 ~seed:1 in
  ignore (Sim.Machine.run_reference train ~profile:shard ~input);
  let collected = Sim.Profile.total_executions shard in
  check_bool "shard collected executions" true (collected > 0);
  check_int "global still empty" 0 (Sim.Profile.total_executions table);
  let moved = Sim.Profile.absorb ~into:table shard in
  check_int "absorb reports the move" collected moved;
  check_int "global received the counts" collected
    (Sim.Profile.total_executions table);
  check_int "shard zeroed" 0 (Sim.Profile.total_executions shard);
  check_int "re-absorb moves nothing" 0 (Sim.Profile.absorb ~into:table shard)

let test_bank_absorb () =
  let keys = [ (0, 2, 64); (2, 2, 128) ] in
  let global = Sim.Predictor.bank keys in
  let shard = Sim.Predictor.bank keys in
  for i = 0 to 99 do
    Sim.Predictor.bank_access shard ~site:(i mod 7) ~taken:(i mod 3 = 0)
  done;
  let shard_lookups = Sim.Predictor.bank_lookups shard in
  List.iter
    (fun (_, n) -> check_int "shard recorded the events" 100 n)
    shard_lookups;
  let shard_miss = Sim.Predictor.bank_mispredicts shard in
  Sim.Predictor.bank_absorb ~into:global shard;
  check_bool "tallies moved to the global bank" true
    (Sim.Predictor.bank_lookups global = shard_lookups
    && Sim.Predictor.bank_mispredicts global = shard_miss);
  List.iter
    (fun (_, n) -> check_int "shard lookups zeroed" 0 n)
    (Sim.Predictor.bank_lookups shard);
  List.iter
    (fun (_, n) -> check_int "shard mispredicts zeroed" 0 n)
    (Sim.Predictor.bank_mispredicts shard);
  (match
     Sim.Predictor.bank_absorb ~into:global
       (Sim.Predictor.bank [ (0, 1, 32) ])
   with
  | () -> Alcotest.fail "shape mismatch must raise"
  | exception Invalid_argument _ -> ());
  (* double absorb did not happen: global still holds exactly one move *)
  List.iter
    (fun (_, n) -> check_int "no double counting" 100 n)
    (Sim.Predictor.bank_lookups global)

(* ---------------------------------------------------------------- *)
(* Worker pool                                                       *)
(* ---------------------------------------------------------------- *)

let test_workers_run_and_shutdown () =
  let pool = Driver.Pool.Workers.create ~domains:3 () in
  check_int "size honors the request" 3 (Driver.Pool.Workers.size pool);
  check_int "run returns the task's result" 12
    (Driver.Pool.Workers.run pool (fun ~worker ->
         check_bool "worker index in range" true (worker >= 0 && worker < 3);
         12));
  (match Driver.Pool.Workers.run pool (fun ~worker:_ -> failwith "task") with
  | _ -> Alcotest.fail "run must re-raise the task's exception"
  | exception Failure m -> check_output "exception carried back" "task" m);
  let hits = Atomic.make 0 in
  for _ = 1 to 50 do
    Driver.Pool.Workers.post pool (fun ~worker:_ -> Atomic.incr hits)
  done;
  Driver.Pool.Workers.shutdown pool;
  check_int "queue drained before join" 50 (Atomic.get hits);
  Driver.Pool.Workers.shutdown pool;
  (* idempotent *)
  match Driver.Pool.Workers.post pool (fun ~worker:_ -> ()) with
  | () -> Alcotest.fail "post after shutdown must raise"
  | exception Invalid_argument _ -> ()

(* ---------------------------------------------------------------- *)
(* Drift signatures                                                  *)
(* ---------------------------------------------------------------- *)

let test_drift_signature_flips () =
  let base, seqs, train, table = drift_parts () in
  let shard_for phase =
    let shard = Sim.Profile.copy_shape table in
    ignore
      (Sim.Machine.run_reference train ~profile:shard
         ~input:(Driver.Replay.drift_input ~phase ~seed:3));
    shard
  in
  let s0 = Reorder.Drift.signature base seqs (shard_for 0) in
  let s0' = Reorder.Drift.signature base seqs (shard_for 0) in
  let s1 = Reorder.Drift.signature base seqs (shard_for 1) in
  check_output "signature is deterministic in the counts" s0 s0';
  check_bool "lowercase-heavy vs digit-heavy orderings differ" true
    (Reorder.Drift.drifted ~served:s0 ~current:s1);
  check_bool "unchanged counts are not drift" false
    (Reorder.Drift.drifted ~served:s0 ~current:s0');
  let empty = Sim.Profile.copy_shape table in
  check_bool "no executions still renders a signature" true
    (String.length (Reorder.Drift.signature base seqs empty) > 0)

(* ---------------------------------------------------------------- *)
(* Native memo LRU (satellite: bounded in-process memo)              *)
(* ---------------------------------------------------------------- *)

let test_native_memo_lru () =
  if not (Sim.Native.available ()) then
    Alcotest.skip ();
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bromc-test-server-native-%d" (Unix.getpid ()))
  in
  let rec rm d =
    if Sys.file_exists d then
      if Sys.is_directory d then begin
        Array.iter (fun e -> rm (Filename.concat d e)) (Sys.readdir d);
        try Unix.rmdir d with _ -> ()
      end
      else try Sys.remove d with _ -> ()
  in
  let saved_cap = Sim.Native.memo_capacity () in
  Fun.protect
    ~finally:(fun () ->
      Sim.Native.set_memo_capacity saved_cap;
      rm dir)
    (fun () ->
      Sim.Native.clear_memo ();
      Sim.Native.reset_stats ();
      Sim.Native.set_memo_capacity 2;
      check_int "capacity readable" 2 (Sim.Native.memo_capacity ());
      let img i =
        Sim.Image.build
          (compile_final (Printf.sprintf "int main() { return %d; }" i))
      in
      for i = 1 to 3 do
        match Sim.Native.prepare ~cache_dir:dir (img i) with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "prepare %d failed: %s" i m
      done;
      let s = Sim.Native.stats () in
      check_int "memo bounded" 2 s.Sim.Native.memo_entries;
      check_int "one eviction" 1 s.Sim.Native.memo_evictions;
      (* the evicted image is served from the on-disk store, not
         recompiled *)
      (match Sim.Native.prepare ~cache_dir:dir (img 1) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "re-prepare failed: %s" m);
      let s = Sim.Native.stats () in
      check_bool "re-request hit the disk store" true
        (s.Sim.Native.disk_hits >= 1);
      check_int "no extra compile" 3 s.Sim.Native.compiles)

(* ---------------------------------------------------------------- *)
(* The server                                                        *)
(* ---------------------------------------------------------------- *)

let wc_spec = Workloads.Registry.find "wc"
let wc_source = wc_spec.Workloads.Spec.source
let wc_input () = Driver.Replay.input_slice ~seed:5 (Lazy.force wc_spec.Workloads.Spec.test_input)

let cache_stat stats name =
  List.find
    (fun s -> String.equal s.Sim.Artifact.a_name name)
    stats.Driver.Server.st_caches

let test_server_cold_then_warm () =
  let srv = Driver.Server.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Driver.Server.shutdown srv)
    (fun () ->
      let input = wc_input () in
      let r1 =
        Driver.Server.submit srv ~name:"wc" ~source:wc_source ~input
      in
      check_output "first request ok" "ok" r1.Driver.Server.rs_status;
      check_bool "first request was cold" true r1.Driver.Server.rs_cold;
      let r2 =
        Driver.Server.submit srv ~name:"wc" ~source:wc_source ~input
      in
      check_output "second request ok" "ok" r2.Driver.Server.rs_status;
      check_bool "second request served warm" false r2.Driver.Server.rs_cold;
      check_output "warm output identical" r1.Driver.Server.rs_output
        r2.Driver.Server.rs_output;
      let out, code = Driver.Server.oracle srv ~name:"wc" ~source:wc_source ~input in
      check_output "output matches the reference oracle" out
        r1.Driver.Server.rs_output;
      check_int "exit code matches the oracle" code
        r1.Driver.Server.rs_exit_code;
      let st = Driver.Server.stats srv in
      check_int "two requests" 2 st.Driver.Server.st_requests;
      check_int "one cold" 1 st.Driver.Server.st_cold;
      check_int "program built once" 1
        (cache_stat st "programs").Sim.Artifact.a_builds;
      check_int "MIR parsed once" 1
        (cache_stat st "mir").Sim.Artifact.a_builds;
      (* the one JSON rendering: round-trips, and carries the union of
         the fields the serve line and the replay record used to print *)
      let j = Json.parse (Json.to_string (Driver.Server.stats_json st)) in
      let get path =
        List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some j) path
      in
      check_bool "requests rendered" true
        (Option.bind (get [ "requests" ]) Json.int = Some 2);
      let programs_cache =
        List.find
          (fun c -> Json.member "name" c = Some (Json.Str "programs"))
          (Option.get (Option.bind (get [ "caches" ]) Json.arr))
      in
      List.iter
        (fun k ->
          check_bool ("cache field " ^ k) true
            (Option.bind (Json.member k programs_cache) Json.int <> None))
        [ "entries"; "capacity"; "hits"; "misses"; "builds"; "evictions";
          "failures" ];
      List.iter
        (fun k ->
          check_bool ("native field " ^ k) true
            (Option.bind (get [ "native"; k ]) Json.int <> None))
        [ "memo_hits"; "disk_hits"; "misses"; "compiles"; "memo_evictions";
          "memo_entries"; "memo_capacity"; "quarantined" ])

(* Satellite: N domains requesting the same cold program concurrently
   compile it exactly once, and every response is byte-identical. *)
let test_server_concurrent_single_flight () =
  let srv = Driver.Server.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Driver.Server.shutdown srv)
    (fun () ->
      let input = wc_input () in
      let n = 8 in
      let lock = Mutex.create () in
      let cond = Condition.create () in
      let pending = ref n in
      let responses = Array.make n None in
      for i = 0 to n - 1 do
        Driver.Server.post srv ~name:"wc" ~source:wc_source ~input
          (fun r ->
            Mutex.lock lock;
            responses.(i) <- Some r;
            decr pending;
            if !pending = 0 then Condition.broadcast cond;
            Mutex.unlock lock)
      done;
      Mutex.lock lock;
      while !pending > 0 do
        Condition.wait cond lock
      done;
      Mutex.unlock lock;
      let rs =
        Array.to_list responses
        |> List.map (function Some r -> r | None -> assert false)
      in
      let first = List.hd rs in
      check_output "status ok" "ok" first.Driver.Server.rs_status;
      List.iter
        (fun r ->
          check_output "every response ok" "ok" r.Driver.Server.rs_status;
          check_output "byte-identical outputs" first.Driver.Server.rs_output
            r.Driver.Server.rs_output;
          check_int "identical exit codes" first.Driver.Server.rs_exit_code
            r.Driver.Server.rs_exit_code)
        rs;
      let st = Driver.Server.stats srv in
      check_int "exactly one cold request" 1 st.Driver.Server.st_cold;
      check_int "single-flight: program pipeline ran once" 1
        (cache_stat st "programs").Sim.Artifact.a_builds;
      check_int "single-flight: MIR parsed once" 1
        (cache_stat st "mir").Sim.Artifact.a_builds;
      let out, _ = Driver.Server.oracle srv ~name:"wc" ~source:wc_source ~input in
      check_output "all of them match the oracle" out
        first.Driver.Server.rs_output)

(* Satellite: profile drift mid-stream re-optimizes and atomically
   swaps the artifact; observables stay byte-identical throughout. *)
let test_server_drift_reopt () =
  let srv =
    Driver.Server.create ~domains:2 ~sample_every:1 ~merge_every:1
      ~drift_min_execs:8 ()
  in
  Fun.protect
    ~finally:(fun () -> Driver.Server.shutdown srv)
    (fun () ->
      let source = Driver.Replay.drift_source in
      let submit phase seed =
        let input = Driver.Replay.drift_input ~phase ~seed in
        let r = Driver.Server.submit srv ~name:"drift" ~source ~input in
        check_output "request ok" "ok" r.Driver.Server.rs_status;
        let out, code = Driver.Server.oracle srv ~name:"drift" ~source ~input in
        check_output "served output byte-identical to the oracle" out
          r.Driver.Server.rs_output;
        check_int "exit code identical" code r.Driver.Server.rs_exit_code;
        r
      in
      (* phase 0: lowercase-heavy traffic trains the initial ordering *)
      for s = 1 to 4 do
        ignore (submit 0 s)
      done;
      Driver.Server.sync srv;
      let before = List.length (Driver.Server.reopt_events srv) in
      (* phase 1: digit-heavy traffic; accumulated counts flip Eq. 1-4 *)
      for s = 1 to 6 do
        ignore (submit 1 s)
      done;
      Driver.Server.sync srv;
      let events = Driver.Server.reopt_events srv in
      check_bool "drift triggered a re-optimization" true
        (List.length events > before);
      let last = List.nth events (List.length events - 1) in
      check_bool "swap advanced the generation" true
        (last.Driver.Server.re_generation >= 2);
      check_output "event names the program" "drift"
        last.Driver.Server.re_program;
      (* the swapped artifact serves the new generation, still
         byte-identical to the reference *)
      let r = submit 1 99 in
      check_bool "served from the re-optimized generation" true
        (r.Driver.Server.rs_generation >= 2);
      let st = Driver.Server.stats srv in
      check_bool "shadow runs happened" true
        (st.Driver.Server.st_shadow_runs > 0);
      check_bool "merges happened" true (st.Driver.Server.st_merges > 0);
      check_bool "re-opt counted in stats" true
        (st.Driver.Server.st_reopts > before))

let test_server_guard_contains_trap () =
  let srv = Driver.Server.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Driver.Server.shutdown srv)
    (fun () ->
      let bad = "int main() { int x; x = 1 / 0; return x; }" in
      let r = Driver.Server.submit srv ~name:"bad" ~source:bad ~input:"" in
      check_output "trap is reported, not fatal" "trap"
        r.Driver.Server.rs_status;
      (* the server survives and still serves good programs *)
      let ok =
        Driver.Server.submit srv ~name:"wc" ~source:wc_source
          ~input:(wc_input ())
      in
      check_output "service alive after the trap" "ok"
        ok.Driver.Server.rs_status)

(* the server's side of the one degradation ladder: a crash moves the
   request down a rung, a trap is final on the first *)
let test_server_ladder () =
  let srv = Driver.Server.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Driver.Server.shutdown srv)
    (fun () ->
      let input = wc_input () in
      let r =
        Driver.Server.submit srv
          ~inject:(fun () -> failwith "injected crash")
          ~name:"wc" ~source:wc_source ~input
      in
      check_output "crash recovered" "ok" r.Driver.Server.rs_status;
      check_output "served by the next rung" "reference"
        r.Driver.Server.rs_backend;
      let out, code =
        Driver.Server.oracle srv ~name:"wc" ~source:wc_source ~input
      in
      check_output "degraded output equals the oracle" out
        r.Driver.Server.rs_output;
      check_int "degraded exit code equals the oracle" code
        r.Driver.Server.rs_exit_code;
      let bad = "int main() { int x; x = 1 / 0; return x; }" in
      let t = Driver.Server.submit srv ~name:"bad" ~source:bad ~input:"" in
      check_output "trap is final" "trap" t.Driver.Server.rs_status;
      check_output "trap stays on the first rung" "compiled"
        t.Driver.Server.rs_backend)

(* ---------------------------------------------------------------- *)
(* Replay                                                            *)
(* ---------------------------------------------------------------- *)

let test_replay_smoke () =
  let outcome =
    Driver.Replay.run
      ~workloads:[ "wc"; "grep" ]
      ~requests:36 ~concurrency:2 ~seed:7 ~drift:true ~sample_every:1
      ~merge_every:2 ~drift_min_execs:8 ~check_every:4 ()
  in
  check_int "every request was fired" 36 outcome.Driver.Replay.ro_requests;
  check_int "every request succeeded" 36 outcome.Driver.Replay.ro_ok;
  check_int "no failures" 0 outcome.Driver.Replay.ro_failed;
  check_bool "throughput measured" true
    (outcome.Driver.Replay.ro_throughput_rps > 0.);
  check_bool "latency percentiles ordered" true
    (outcome.Driver.Replay.ro_p99_ms >= outcome.Driver.Replay.ro_p50_ms);
  check_bool "differential sample ran" true
    (outcome.Driver.Replay.ro_checked > 0);
  check_int "zero oracle mismatches" 0 outcome.Driver.Replay.ro_mismatches;
  check_bool "drift re-optimization fired" true
    (outcome.Driver.Replay.ro_reopts >= 1);
  check_bool "cold baseline measured" true
    (outcome.Driver.Replay.ro_cold_ms > 0.);
  let st = outcome.Driver.Replay.ro_stats in
  check_bool "warm requests dominated" true
    (st.Driver.Server.st_requests > st.Driver.Server.st_cold)

(* Satellite: LRU eviction racing single-flight builds.  Domains hammer
   a capacity-1 cache with interleaved keys, so entries are evicted
   while other domains are mid-build or mid-wait on them; every lookup
   must still come back with its own key's artifact. *)
let test_artifact_lru_race () =
  let cache : string Sim.Artifact.t =
    Sim.Artifact.create ~capacity:1 ~name:"t-lru-race" ()
  in
  let keys = [| "a"; "b"; "c"; "d" |] in
  (* a resident re-request is a deterministic hit before the storm *)
  ignore (Sim.Artifact.find_or_build cache "a" (fun () -> "v-a"));
  ignore (Sim.Artifact.find_or_build cache "a" (fun () -> "v-a"));
  let wrong = Atomic.make 0 in
  let worker () =
    for i = 0 to 199 do
      (* all domains share the schedule, so the same key is requested
         concurrently (waiters on in-flight builds) while domains that
         drifted ahead evict it with the next key *)
      let k = keys.((i / 8) mod Array.length keys) in
      let v =
        Sim.Artifact.find_or_build cache k (fun () ->
            (* widen the in-flight window so evictions land inside it *)
            if i land 15 = 0 then Domain.cpu_relax ();
            "v-" ^ k)
      in
      if not (String.equal v ("v-" ^ k)) then Atomic.incr wrong
    done
  in
  let doms = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join doms;
  check_int "every lookup got its own key's artifact" 0 (Atomic.get wrong);
  let s = Sim.Artifact.stats cache in
  check_int "capacity held under the race" 1 s.Sim.Artifact.a_entries;
  check_bool "evictions actually happened" true
    (s.Sim.Artifact.a_evictions > 0);
  check_bool "hits and misses both occurred" true
    (s.Sim.Artifact.a_hits > 0 && s.Sim.Artifact.a_misses > 0)

(* ---------------------------------------------------------------- *)
(* Durability and admission control                                  *)
(* ---------------------------------------------------------------- *)

let with_state_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bromc_srv_state_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  let rec rm d =
    if Sys.is_directory d then begin
      Array.iter (fun e -> rm (Filename.concat d e)) (Sys.readdir d);
      try Unix.rmdir d with _ -> ()
    end
    else try Sys.remove d with _ -> ()
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

(* Each generation prepares its native plugin once and later requests
   run the held handle; [clear_memo] retires the handle, so the next
   request reloads from the on-disk store. *)
let test_server_native_prepare_per_generation () =
  if not (Sim.Native.available ()) then Alcotest.skip ();
  with_state_dir (fun dir ->
      let config =
        {
          Driver.Config.default with
          Driver.Config.backend = `Native;
          native_cache_dir = Some dir;
        }
      in
      let srv =
        Driver.Server.create ~config ~domains:1 ~sample_every:1
          ~merge_every:1 ~drift_min_execs:8 ()
      in
      Fun.protect
        ~finally:(fun () -> Driver.Server.shutdown srv)
        (fun () ->
          let source = Driver.Replay.drift_source in
          let prepares () =
            let s = Sim.Native.stats () in
            s.Sim.Native.memo_hits + s.Sim.Native.disk_hits
            + s.Sim.Native.misses
          in
          let submit phase seed =
            let input = Driver.Replay.drift_input ~phase ~seed in
            let r = Driver.Server.submit srv ~name:"drift" ~source ~input in
            check_output "request ok" "ok" r.Driver.Server.rs_status;
            check_output "served natively" "native" r.Driver.Server.rs_backend;
            let out, code =
              Driver.Server.oracle srv ~name:"drift" ~source ~input
            in
            check_output "output equals the oracle" out
              r.Driver.Server.rs_output;
            check_int "exit code equals the oracle" code
              r.Driver.Server.rs_exit_code;
            r.Driver.Server.rs_generation
          in
          let p0 = prepares () in
          (* the input it trained on: the profile keeps its shape, so
             no merge re-optimizes *)
          for _ = 1 to 20 do
            check_int "phase 0 stays on generation 1" 1 (submit 0 1)
          done;
          check_int "20 requests, one prepare" 1 (prepares () - p0);
          (* the phase flip of the drift test re-optimizes; every new
             generation served prepares exactly once *)
          let p1 = prepares () in
          let gens = Hashtbl.create 4 in
          for s = 1 to 16 do
            Hashtbl.replace gens (submit 1 s) ()
          done;
          Hashtbl.remove gens 1;
          check_bool "the flip served a new generation" true
            (Hashtbl.length gens >= 1);
          check_int "one prepare per new generation" (Hashtbl.length gens)
            (prepares () - p1);
          (* the store still holds the plugin, so a retired handle is
             reloaded from disk, not recompiled *)
          let s0 = Sim.Native.stats () in
          let p2 = prepares () in
          Sim.Native.clear_memo ();
          ignore (submit 1 17);
          let s1 = Sim.Native.stats () in
          check_int "after clear_memo: one disk hit" 1
            (s1.Sim.Native.disk_hits - s0.Sim.Native.disk_hits);
          check_int "after clear_memo: one prepare" 1 (prepares () - p2);
          ignore (submit 1 18);
          check_int "the reloaded handle is held" 1 (prepares () - p2)))

(* Tentpole: a crash (no final flush) and restart resumes at the
   learned generation with the merged profile counters intact, and the
   restored server's responses stay byte-identical to the oracle. *)
let test_server_crash_restart_resumes () =
  with_state_dir (fun dir ->
      let make () =
        Driver.Server.create ~domains:2 ~sample_every:1 ~merge_every:1
          ~drift_min_execs:8 ~state_dir:dir ()
      in
      let srv = make () in
      let input = wc_input () in
      for _ = 1 to 6 do
        ignore (Driver.Server.submit srv ~name:"wc" ~source:wc_source ~input)
      done;
      (* push drift through a generation bump so the restore has a
         non-trivial generation to resume *)
      let d0 = Driver.Replay.drift_input ~phase:0 ~seed:3 in
      let d1 = Driver.Replay.drift_input ~phase:1 ~seed:4 in
      for _ = 1 to 4 do
        ignore
          (Driver.Server.submit srv ~name:"drift"
             ~source:Driver.Replay.drift_source ~input:d0)
      done;
      Driver.Server.sync srv;
      for _ = 1 to 8 do
        ignore
          (Driver.Server.submit srv ~name:"drift"
             ~source:Driver.Replay.drift_source ~input:d1)
      done;
      Driver.Server.sync srv;
      let pre = Driver.Server.stats srv in
      let pre_programs = List.sort compare pre.Driver.Server.st_programs in
      check_bool "drift advanced a generation before the crash" true
        (List.exists
           (fun (n, g, _) -> String.equal n "drift" && g >= 2)
           pre_programs);
      (* power loss: no final merge, no snapshot *)
      Driver.Server.shutdown ~crash:true srv;
      let srv2 = make () in
      Fun.protect
        ~finally:(fun () -> Driver.Server.shutdown srv2)
        (fun () ->
          let post = Driver.Server.stats srv2 in
          check_int "both programs restored" 2
            post.Driver.Server.st_restored;
          check_bool "generations and counters resumed exactly" true
            (List.sort compare post.Driver.Server.st_programs = pre_programs);
          (* restored artifacts serve, warm, and match the oracle *)
          let r =
            Driver.Server.submit srv2 ~name:"wc" ~source:wc_source ~input
          in
          check_output "restored program serves" "ok"
            r.Driver.Server.rs_status;
          check_bool "restored program is warm (no rebuild)" false
            r.Driver.Server.rs_cold;
          let out, code =
            Driver.Server.oracle srv2 ~name:"wc" ~source:wc_source ~input
          in
          check_output "restored response byte-identical to oracle" out
            r.Driver.Server.rs_output;
          check_int "restored exit code matches" code
            r.Driver.Server.rs_exit_code;
          let rd =
            Driver.Server.submit srv2 ~name:"drift"
              ~source:Driver.Replay.drift_source ~input:d1
          in
          check_bool "drift serves at its resumed generation" true
            (rd.Driver.Server.rs_generation >= 2)))

(* a config change must not resurrect stale state: the content key
   embeds the config fingerprint, so restore drops every record *)
let test_restore_drops_on_config_change () =
  with_state_dir (fun dir ->
      let srv =
        Driver.Server.create ~domains:1 ~sample_every:1 ~merge_every:1
          ~state_dir:dir ()
      in
      ignore
        (Driver.Server.submit srv ~name:"wc" ~source:wc_source
           ~input:(wc_input ()));
      Driver.Server.sync srv;
      Driver.Server.shutdown ~crash:true srv;
      let config =
        {
          Driver.Config.default with
          Driver.Config.heuristic = Mopt.Switch_lower.set_ii;
        }
      in
      let srv2 =
        Driver.Server.create ~config ~domains:1 ~state_dir:dir ()
      in
      Fun.protect
        ~finally:(fun () -> Driver.Server.shutdown srv2)
        (fun () ->
          check_int "mismatched config restores nothing" 0
            (Driver.Server.stats srv2).Driver.Server.st_restored))

(* Tentpole: admission control sheds excess load with an explicit
   overloaded response instead of queueing without bound. *)
let test_overload_shedding () =
  let srv = Driver.Server.create ~domains:1 ~queue_cap:2 () in
  Fun.protect
    ~finally:(fun () -> Driver.Server.shutdown srv)
    (fun () ->
      let input = wc_input () in
      (* warm the program so queued requests are pure service time *)
      ignore (Driver.Server.submit srv ~name:"wc" ~source:wc_source ~input);
      let n = 16 in
      let lock = Mutex.create () in
      let cond = Condition.create () in
      let pending = ref n in
      let responses = Array.make n None in
      for i = 0 to n - 1 do
        (* each in-flight request stalls 30ms, so the single worker
           saturates and the queue hits its cap *)
        Driver.Server.post srv
          ~inject:(fun () -> Unix.sleepf 0.03)
          ~name:"wc" ~source:wc_source ~input
          (fun r ->
            Mutex.lock lock;
            responses.(i) <- Some r;
            decr pending;
            if !pending = 0 then Condition.broadcast cond;
            Mutex.unlock lock)
      done;
      Mutex.lock lock;
      while !pending > 0 do
        Condition.wait cond lock
      done;
      Mutex.unlock lock;
      let shed, served =
        Array.fold_left
          (fun (shed, served) r ->
            match r with
            | Some r when String.equal r.Driver.Server.rs_status "overloaded"
              ->
              check_bool "shed response carries a diagnostic" true
                (String.length r.Driver.Server.rs_message > 0);
              (shed + 1, served)
            | Some r ->
              check_output "admitted requests still succeed" "ok"
                r.Driver.Server.rs_status;
              (shed, served + 1)
            | None -> Alcotest.fail "response lost")
          (0, 0) responses
      in
      check_bool "some requests were shed" true (shed > 0);
      check_bool "some requests were served" true (served > 0);
      let st = Driver.Server.stats srv in
      check_int "shed count surfaces in stats" shed
        st.Driver.Server.st_overloaded)

let test_replay_rejects_unknown_workload () =
  match Driver.Replay.run ~workloads:[ "no-such" ] ~requests:1 () with
  | _ -> Alcotest.fail "unknown workload must be rejected"
  | exception Failure m ->
    check_bool "error names the workload" true
      (String.length m > 0 && String.index_opt m 'n' <> None)

(* Tentpole: the chaos matrix end to end — seeded faults of every kind
   against a durable server, a crash-restart between the waves, zero
   escapes and an exact restore. *)
let test_replay_chaos_certification () =
  with_state_dir (fun dir ->
      let outcome =
        Driver.Replay.run
          ~workloads:[ "wc" ]
          ~requests:40 ~concurrency:2 ~seed:11 ~drift:true ~sample_every:1
          ~merge_every:2 ~drift_min_execs:8 ~check_every:8 ~chaos:5
          ~chaos_seed:13 ~state_dir:dir ()
      in
      check_int "five faults planned" 5 outcome.Driver.Replay.ro_chaos_planned;
      check_int "zero escapes" 0 outcome.Driver.Replay.ro_chaos_escapes;
      check_int "zero oracle mismatches" 0 outcome.Driver.Replay.ro_mismatches;
      check_int "one crash-restart cycle" 1
        outcome.Driver.Replay.ro_crash_restarts;
      check_bool "programs restored after the crash" true
        (outcome.Driver.Replay.ro_restored > 0);
      check_bool "restore matched the pre-crash state exactly" true
        outcome.Driver.Replay.ro_restore_exact;
      check_int "every fault has a verdict" 5
        (List.length outcome.Driver.Replay.ro_chaos_faults);
      (* unplanned requests must be untouched by the chaos *)
      check_bool "failures are bounded by the planned faults" true
        (outcome.Driver.Replay.ro_failed
        <= outcome.Driver.Replay.ro_chaos_failed))

let test_input_slice () =
  check_output "empty stays empty" "" (Driver.Replay.input_slice ~seed:1 "");
  let text = String.concat "\n" (List.init 200 string_of_int) ^ "\n" in
  let s1 = Driver.Replay.input_slice ~seed:1 text in
  let s4 = Driver.Replay.input_slice ~seed:4 text in
  check_bool "slice is a prefix" true
    (String.length s1 <= String.length text
    && String.equal s1 (String.sub text 0 (String.length s1)));
  check_bool "slices vary with the seed" true
    (String.length s1 <> String.length s4 || String.equal s1 s4);
  check_bool "newline-aligned" true
    (String.length s1 = 0 || s1.[String.length s1 - 1] = '\n')

let suite =
  [
    case "artifact: single-flight across domains" test_artifact_single_flight;
    case "artifact: LRU eviction under capacity" test_artifact_lru_eviction;
    case "artifact: failed build leaves key cold" test_artifact_failed_build_retries;
    case "profile: shard absorb moves counts once" test_profile_shard_absorb;
    case "predictor: bank absorb merges telemetry" test_bank_absorb;
    case "pool: workers run, drain, shut down" test_workers_run_and_shutdown;
    case "drift: signature flips with the input mix" test_drift_signature_flips;
    case "native: memo LRU bounded, refill from disk" test_native_memo_lru;
    case "server: cold build then warm hits" test_server_cold_then_warm;
    case "server: N domains, one compile, identical bytes"
      test_server_concurrent_single_flight;
    slow_case "server: drift re-optimizes, observables identical"
      test_server_drift_reopt;
    case "server: trap contained by the guard ladder"
      test_server_guard_contains_trap;
    case "server: crashes degrade a rung, traps stay final"
      test_server_ladder;
    case "artifact: LRU eviction races single-flight builds"
      test_artifact_lru_race;
    slow_case "server: crash-restart resumes generation and counters"
      test_server_crash_restart_resumes;
    case "server: restore drops state on config change"
      test_restore_drops_on_config_change;
    case "server: queue cap sheds load as overloaded"
      test_overload_shedding;
    slow_case "server: one native prepare per generation"
      test_server_native_prepare_per_generation;
    slow_case "replay: mixed traffic, oracle-checked" test_replay_smoke;
    slow_case "replay: chaos matrix certified, zero escapes"
      test_replay_chaos_certification;
    case "replay: unknown workload rejected" test_replay_rejects_unknown_workload;
    case "replay: input slices" test_input_slice;
  ]
