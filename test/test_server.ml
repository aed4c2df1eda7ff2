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

(* no capacity bound: more keys than the old native memo cap (512)
   all stay resident, and a second pass over them builds nothing *)
let test_artifact_every_entry_stays () =
  let cache : int Sim.Artifact.t = Sim.Artifact.create ~name:"t-unbounded" () in
  let n = 600 in
  let pass () =
    for k = 0 to n - 1 do
      check_int "each key yields its own artifact" k
        (Sim.Artifact.find_or_build cache (string_of_int k) (fun () -> k))
    done
  in
  pass ();
  pass ();
  let s = Sim.Artifact.stats cache in
  check_int "one build per key" n s.Sim.Artifact.a_builds;
  check_int "the second pass is all hits" n s.Sim.Artifact.a_hits;
  check_int "every entry resident" n s.Sim.Artifact.a_entries;
  check_int "ready lists every entry" n
    (List.length (Sim.Artifact.ready cache))

(* fill a cache, keep only a weak pointer to what it holds, and let the
   cache go out of scope with the frame *)
let[@inline never] dropped_cache_artifact () =
  let cache : bytes Sim.Artifact.t = Sim.Artifact.create ~name:"t-drop" () in
  let held = Weak.create 1 in
  Weak.set held 0
    (Some (Sim.Artifact.find_or_build cache "k" (fun () -> Bytes.make 64 'a')));
  held

let test_artifact_dropped_cache_collected () =
  let held = dropped_cache_artifact () in
  Gc.full_major ();
  check_bool "artifact of a dropped cache is collected" false
    (Weak.check held 0)

(* ---------------------------------------------------------------- *)
(* Profile shards                                                    *)
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
        [ "entries"; "hits"; "misses"; "builds"; "failures" ];
      List.iter
        (fun k ->
          check_bool ("native field " ^ k) true
            (Option.bind (get [ "native"; k ]) Json.int <> None))
        [ "memo_hits"; "disk_hits"; "misses"; "compiles"; "memo_entries";
          "quarantined" ])

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
      let out, _ = Driver.Server.oracle srv ~name:"wc" ~source:wc_source ~input in
      check_output "all of them match the oracle" out
        first.Driver.Server.rs_output)

(* Satellite: profile drift mid-stream re-optimizes and atomically
   swaps the artifact; observables stay byte-identical throughout. *)
let test_server_drift_reopt () =
  let srv = Driver.Server.create ~domains:2 () in
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
      (* phase 1: digit-heavy traffic; accumulated counts flip Eq. 1-4.
         A worker shadows every 4th request, so two workers can take at
         most 6 more without one: 8 requests sample phase 1 at least
         once, and one phase-1 shadow outweighs the few phase-0 ones *)
      for s = 1 to 8 do
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
      ~requests:36 ~concurrency:2 ~seed:7 ~drift:true ()
  in
  check_int "every request was fired" 36 outcome.Driver.Replay.ro_requests;
  check_int "every request succeeded" 36 outcome.Driver.Replay.ro_ok;
  check_int "no failures" 0 outcome.Driver.Replay.ro_failed;
  check_int "every ok response was checked" outcome.Driver.Replay.ro_ok
    outcome.Driver.Replay.ro_checked;
  check_int "zero oracle mismatches" 0 outcome.Driver.Replay.ro_mismatches;
  check_bool "drift re-optimization fired" true
    (outcome.Driver.Replay.ro_stats.Driver.Server.st_reopts >= 1);
  let st = outcome.Driver.Replay.ro_stats in
  check_bool "warm requests dominated" true
    (st.Driver.Server.st_requests > st.Driver.Server.st_cold)

(* Domains hammer one cache with many keys on a shared schedule, so
   every key is requested by several domains at once (waiters on
   in-flight builds) while others build their neighbours: every lookup
   comes back with its own key's artifact, and each key builds once. *)
let test_artifact_many_key_single_flight () =
  let cache : string Sim.Artifact.t =
    Sim.Artifact.create ~name:"t-many-keys" ()
  in
  let n_keys = 32 and n_domains = 4 and rounds = 200 in
  let builds = Array.init n_keys (fun _ -> Atomic.make 0) in
  let wrong = Atomic.make 0 in
  let worker () =
    for i = 0 to rounds - 1 do
      let k = i / 4 mod n_keys in
      let key = "k" ^ string_of_int k in
      let v =
        Sim.Artifact.find_or_build cache key (fun () ->
            Atomic.incr builds.(k);
            (* widen the in-flight window so waiters pile up on it *)
            for _ = 1 to 1000 do
              Domain.cpu_relax ()
            done;
            "v-" ^ key)
      in
      if not (String.equal v ("v-" ^ key)) then Atomic.incr wrong
    done
  in
  let doms = List.init n_domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join doms;
  check_int "every lookup got its own key's artifact" 0 (Atomic.get wrong);
  Array.iteri
    (fun k b -> check_int (Printf.sprintf "key %d built once" k) 1 (Atomic.get b))
    builds;
  let s = Sim.Artifact.stats cache in
  check_int "every key resident" n_keys s.Sim.Artifact.a_entries;
  check_int "one build per key" n_keys s.Sim.Artifact.a_builds;
  check_int "one miss per key" n_keys s.Sim.Artifact.a_misses;
  check_int "every other lookup a hit"
    ((n_domains * rounds) - n_keys)
    s.Sim.Artifact.a_hits

(* ---------------------------------------------------------------- *)
(* Durability                                                        *)
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
      let srv = Driver.Server.create ~config ~domains:1 () in
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
            Hashtbl.replace gens (submit 1 s) ();
            (* merge the phase-1 shadow runs so far: the flip lands
               mid-loop whatever the merge cadence *)
            if s = 8 then Driver.Server.sync srv
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
        Driver.Server.create ~domains:2 ~state_dir:dir ()
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
      (* two workers shadowing every 4th request take at most 6 more
         without a shadow run: 8 sample phase 1 at least once *)
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
      (* power loss: no final merge *)
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

(* the state dir is one record file per program and nothing else: a
   merge replaces the file, leaves no tmp behind, and a restart from
   the files alone restores every program exactly *)
let test_one_record_file_per_program () =
  with_state_dir (fun dir ->
      let make () =
        Driver.Server.create ~domains:1 ~state_dir:dir ()
      in
      let srv = make () in
      let input = wc_input () in
      for _ = 1 to 6 do
        ignore (Driver.Server.submit srv ~name:"wc" ~source:wc_source ~input);
        ignore
          (Driver.Server.submit srv ~name:"drift"
             ~source:Driver.Replay.drift_source
             ~input:(Driver.Replay.drift_input ~phase:0 ~seed:3))
      done;
      Driver.Server.sync srv;
      let pre = (Driver.Server.stats srv).Driver.Server.st_programs in
      let records =
        List.filter_map
          (fun source -> Driver.Server.state_record srv ~source)
          [ wc_source; Driver.Replay.drift_source ]
      in
      Driver.Server.shutdown ~crash:true srv;
      check_bool "the directory holds exactly the two record files" true
        (List.sort compare (Array.to_list (Sys.readdir dir))
        = List.sort compare (List.map Filename.basename records));
      List.iter
        (fun path ->
          let r =
            In_channel.with_open_bin path In_channel.input_all
            |> String.trim |> Driver.State.unframe
          in
          check_bool "each file holds one whole program frame" true
            (match r with
            | Some payload ->
              Json.member "t" (Json.parse payload) = Some (Json.Str "program")
            | None -> false))
        records;
      let srv2 = make () in
      Fun.protect
        ~finally:(fun () -> Driver.Server.shutdown srv2)
        (fun () ->
          let post = Driver.Server.stats srv2 in
          check_int "both programs restored" 2 post.Driver.Server.st_restored;
          check_bool "programs restored exactly" true
            (post.Driver.Server.st_programs = pre)))

(* a torn record costs nothing once the program merges again: [sync]
   rewrites it whole, so a crash-restart still restores exactly *)
let test_torn_record_rewritten_by_sync () =
  with_state_dir (fun dir ->
      let make () = Driver.Server.create ~domains:1 ~state_dir:dir () in
      let srv = make () in
      let input = wc_input () in
      check_bool "no record before the program has an entry" true
        (Driver.Server.state_record srv ~source:wc_source = None);
      for _ = 1 to 6 do
        ignore (Driver.Server.submit srv ~name:"wc" ~source:wc_source ~input)
      done;
      let path =
        match Driver.Server.state_record srv ~source:wc_source with
        | Some p -> p
        | None -> Alcotest.fail "a built program on a durable server has a record"
      in
      let whole = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub whole 0 (String.length whole / 2)));
      check_int "the torn record is skipped" 1
        (Driver.State.load ~dir).Driver.State.r_skipped;
      Driver.Server.sync srv;
      let pre = (Driver.Server.stats srv).Driver.Server.st_programs in
      Driver.Server.shutdown ~crash:true srv;
      let srv2 = make () in
      Fun.protect
        ~finally:(fun () -> Driver.Server.shutdown srv2)
        (fun () ->
          let post = Driver.Server.stats srv2 in
          check_int "the program restored" 1 post.Driver.Server.st_restored;
          check_bool "restore exact after the rewrite" true
            (post.Driver.Server.st_programs = pre)))

(* an unusable state dir fails [create] at once, before a request
   could find out, and an ephemeral server has no record to name *)
let test_unusable_state_dir_fails_create () =
  with_state_dir (fun dir ->
      let file = Filename.concat dir "plain" in
      Out_channel.with_open_bin file (fun oc -> output_string oc "x");
      (match Driver.Server.create ~domains:1 ~state_dir:file () with
      | srv ->
        Driver.Server.shutdown srv;
        Alcotest.fail "a file is not a state dir"
      | exception Sys_error m ->
        check_output "the error names the path" (file ^ ": not a directory") m);
      let srv = Driver.Server.create ~domains:1 () in
      Fun.protect
        ~finally:(fun () -> Driver.Server.shutdown srv)
        (fun () ->
          ignore
            (Driver.Server.submit srv ~name:"wc" ~source:wc_source
               ~input:(wc_input ()));
          check_bool "no state dir, no record" true
            (Driver.Server.state_record srv ~source:wc_source = None)))

(* a config change must not resurrect stale state: the content key
   embeds the config fingerprint, so restore drops every record *)
let test_restore_drops_on_config_change () =
  with_state_dir (fun dir ->
      let srv = Driver.Server.create ~domains:1 ~state_dir:dir () in
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
          ~requests:40 ~concurrency:2 ~seed:11 ~drift:true ~chaos:5
          ~chaos_seed:13 ~state_dir:dir ()
      in
      check_int "five faults planned" 5 outcome.Driver.Replay.ro_chaos_planned;
      (* the counters span the crash: 40 requests plus one warm-up per
         program (wc and the drift workload) *)
      check_int "requests counted across the crash" 42
        outcome.Driver.Replay.ro_stats.Driver.Server.st_requests;
      check_int "every ok response was checked" outcome.Driver.Replay.ro_ok
        outcome.Driver.Replay.ro_checked;
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

(* a durable replay counts both waves: against the same replay without
   a state dir it serves the same requests from the same cache hits,
   and its only extra misses are the restore's *)
let test_replay_durable_counts_both_waves () =
  let replay ?state_dir () =
    Driver.Replay.run ~workloads:[ "wc" ] ~requests:20 ~concurrency:1 ~seed:5
      ~drift:false ?state_dir ()
  in
  let plain = (replay ()).Driver.Replay.ro_stats in
  with_state_dir (fun dir ->
      let outcome = replay ~state_dir:dir () in
      let durable = outcome.Driver.Replay.ro_stats in
      check_int "one crash-restart cycle" 1
        outcome.Driver.Replay.ro_crash_restarts;
      (* 20 requests plus the one warm-up, on either side of the crash *)
      check_int "requests counted across the crash" 21
        durable.Driver.Server.st_requests;
      check_int "as many requests as the plain replay"
        plain.Driver.Server.st_requests durable.Driver.Server.st_requests;
      let programs (st : Driver.Server.stats) =
        List.find
          (fun c -> c.Sim.Artifact.a_name = "programs")
          st.Driver.Server.st_caches
      in
      let p = programs plain and d = programs durable in
      let restored = outcome.Driver.Replay.ro_restored in
      check_bool "the restart restored the program" true (restored > 0);
      check_int "cache hits of both waves" p.Sim.Artifact.a_hits
        d.Sim.Artifact.a_hits;
      check_int "the restore adds one miss per restored program"
        (p.Sim.Artifact.a_misses + restored) d.Sim.Artifact.a_misses;
      check_int "and one build per restored program"
        (p.Sim.Artifact.a_builds + restored) d.Sim.Artifact.a_builds)

(* An artifact fault damages the plugin the victim request's program is
   served from, never a file in the store that no served program loads:
   with foreign plugins in the store, each artifact fault either
   quarantines (the served program reloads the damaged file) or is
   vacuous. *)
let test_replay_artifact_fault_hits_served_plugin () =
  if not (Sim.Native.available ()) then Alcotest.skip ();
  with_state_dir (fun dir ->
      (* plugins of programs the replay never serves *)
      List.iter
        (fun k ->
          let src = Printf.sprintf "int main() { return %d; }" k in
          match
            Sim.Native.prepare ~cache_dir:dir
              (Sim.Image.build (compile_final src))
          with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e)
        [ 1; 2; 3; 4; 5; 6 ];
      Sim.Native.clear_memo ();
      let config =
        {
          Driver.Config.default with
          Driver.Config.backend = `Native;
          native_cache_dir = Some dir;
        }
      in
      let q0 = (Sim.Native.stats ()).Sim.Native.quarantined in
      let outcome =
        Driver.Replay.run ~config ~workloads:[ "wc" ] ~requests:40
          ~concurrency:1 ~seed:11 ~drift:false ~chaos:5 ~chaos_seed:13 ()
      in
      let quarantined = (Sim.Native.stats ()).Sim.Native.quarantined - q0 in
      let artifact_faults =
        List.filter
          (fun f ->
            List.mem f.Driver.Replay.rf_kind
              [ "corrupt_artifact"; "truncate_artifact" ])
          outcome.Driver.Replay.ro_chaos_faults
      in
      check_int "both artifact faults planned" 2 (List.length artifact_faults);
      let struck =
        List.filter
          (fun f -> f.Driver.Replay.rf_outcome <> "vacuous")
          artifact_faults
      in
      check_bool "the served plugin was on disk to damage" true (struck <> []);
      check_int "every fault that struck was quarantined" (List.length struck)
        quarantined;
      check_int "zero escapes" 0 outcome.Driver.Replay.ro_chaos_escapes;
      check_int "zero oracle mismatches" 0 outcome.Driver.Replay.ro_mismatches)

(* The one-domain chaos and crash-restart replay is a function of the
   code and the seed: its report is pinned byte for byte, and
   [bromc replay] prints the same text for the same arguments
   ([--requests 200 --workloads wc,grep,sort,awk,cb --chaos 5
   --chaos-seed 7 --state-dir DIR -j 1], DIR fresh). *)
let test_replay_report_golden () =
  with_state_dir (fun dir ->
      let outcome =
        Driver.Replay.run
          ~workloads:[ "wc"; "grep"; "sort"; "awk"; "cb" ]
          ~requests:200 ~concurrency:1 ~chaos:5 ~chaos_seed:7 ~state_dir:dir
          ()
      in
      check_golden "replay-chaos.txt" (Driver.Replay.report outcome))

(* The golden replay serves on the compiled backend, so it loads no
   plugin, and an artifact fault has nothing of its own to damage: the
   report is the same on a store that an earlier native replay filled
   with the plugins of the very generations it serves. *)
let test_replay_golden_on_seeded_store () =
  if not (Sim.Native.available ()) then Alcotest.skip ();
  with_state_dir (fun dir ->
      let store = Filename.concat dir "store" in
      let workloads = [ "wc"; "grep"; "sort"; "awk"; "cb" ] in
      let native =
        {
          Driver.Config.default with
          Driver.Config.backend = `Native;
          native_cache_dir = Some store;
        }
      in
      let (_ : Driver.Replay.outcome) =
        Driver.Replay.run ~config:native ~workloads ~requests:200
          ~concurrency:1 ~state_dir:(Filename.concat dir "seed") ()
      in
      let outcome =
        Driver.Replay.run
          ~config:{ Driver.Config.default with native_cache_dir = Some store }
          ~workloads ~requests:200 ~concurrency:1 ~chaos:5 ~chaos_seed:7
          ~state_dir:(Filename.concat dir "state") ()
      in
      check_golden "replay-chaos.txt" (Driver.Replay.report outcome))

(* Only a native server loads plugins, so only a native server names
   one for an artifact fault to damage: on the other backends the
   served program's store path is not its own, even on a host where the
   native backend is available *)
let test_native_artifact_only_on_native () =
  let artifact backend =
    let srv =
      Driver.Server.create
        ~config:{ Driver.Config.default with Driver.Config.backend }
        ~domains:1 ()
    in
    Fun.protect
      ~finally:(fun () -> Driver.Server.shutdown srv)
      (fun () ->
        let r =
          Driver.Server.submit srv ~name:"wc" ~source:wc_source
            ~input:(wc_input ())
        in
        check_output "served" "ok" r.Driver.Server.rs_status;
        Driver.Server.native_artifact srv ~source:wc_source)
  in
  if Sim.Native.available () then
    check_bool "a native server names its plugin" true
      (Option.is_some (artifact `Native));
  List.iter
    (fun backend ->
      check_bool
        (Sim.Machine.backend_name backend ^ " server names no plugin")
        true
        (Option.is_none (artifact backend)))
    [ `Compiled; `Reference ]

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

(* the shadow sampler counts per program: in a round-robin mix of six
   programs, whose period shares a factor with the sampling interval of
   4, every program still gets every 4th of its own successful requests
   profiled, so 8 rounds give each exactly two shadow runs.  One fixed
   input per program, so each run adds the same profile executions *)
let test_sampler_per_program () =
  let names = [ "wc"; "grep"; "sort"; "awk"; "cb"; "pr" ] in
  let reqs =
    List.map
      (fun name ->
        (name, Result.get_ok (Driver.Replay.request name ~seed:1)))
      names
  in
  let srv = Driver.Server.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Driver.Server.shutdown srv)
    (fun () ->
      let rounds n =
        for _ = 1 to n do
          List.iter
            (fun (name, (source, input)) ->
              check_output (name ^ " served") "ok"
                (Driver.Server.submit srv ~name ~source ~input)
                  .Driver.Server.rs_status)
            reqs
        done;
        Driver.Server.sync srv;
        List.map
          (fun (name, _, executions) -> (name, executions))
          (Driver.Server.stats srv).Driver.Server.st_programs
      in
      let trained = rounds 3 in
      let once = rounds 1 in
      let twice = rounds 4 in
      check_int "shadow runs" 12
        (Driver.Server.stats srv).Driver.Server.st_shadow_runs;
      List.iter
        (fun name ->
          let e0 = List.assoc name trained in
          let run = List.assoc name once - e0 in
          check_bool (name ^ " profiled online") true (run > 0);
          check_int (name ^ ": two shadow runs") (2 * run)
            (List.assoc name twice - e0))
        names)

(* the serve line protocol: total on arbitrary bytes, and today's
   replies pinned *)
let protocol_line =
  let open QCheck.Gen in
  let word =
    frequency
      [
        ( 3,
          oneofl
            [ "run"; "quit"; "exit"; "sync"; "stats"; "wc"; "drift"; "nosuch";
              "99999999999999999999"; "-99999999999999999999"; "-5"; "0";
              "7"; "0x1f"; "\000"; "\r"; "\xff\xfe\xc0" ] );
        (1, string_size ~gen:char (0 -- 8));
      ]
  in
  let sep = oneofl [ " "; "  "; "\t"; "\r"; "" ] in
  map2
    (fun first rest ->
      String.concat "" (first :: List.map (fun (w, s) -> s ^ w) rest))
    (frequency [ (2, return "run"); (1, word) ])
    (list_size (0 -- 5) (pair word sep))

let prop_protocol_total line =
  match Driver.Replay.parse_command line with
  | Driver.Replay.Run { name; seed; deadline_ms } ->
    (match deadline_ms with Some ms -> ms > 0 | None -> true)
    && (match Driver.Replay.request name ~seed with Ok _ | Error _ -> true)
  | Invalid reply -> String.starts_with ~prefix:"err unknown command " reply
  | Blank | Quit | Sync | Stats -> true

let test_protocol_replies () =
  let run line =
    match Driver.Replay.parse_command line with
    | Driver.Replay.Run { name; seed; deadline_ms } -> (name, seed, deadline_ms)
    | _ -> Alcotest.failf "%S is not a run request" line
  in
  let check_run what (name, seed, deadline) line =
    let n, s, d = run line in
    check_output (what ^ ": name") name n;
    check_int (what ^ ": seed") seed s;
    check_bool (what ^ ": deadline") true (d = deadline)
  in
  check_run "negative deadline is none" ("wc", 1, None) "run wc 1 -5";
  check_run "oversized seed is 0" ("wc", 0, None)
    "run wc 99999999999999999999";
  check_run "extra words ignored" ("wc", 2, Some 50) " run  wc 2 50 extra\r";
  check_run "no seed is 0" ("drift", 0, None) "run drift";
  check_bool "blank" true (Driver.Replay.parse_command " \t" = Blank);
  check_bool "exit" true (Driver.Replay.parse_command "exit" = Quit);
  check_bool "sync" true (Driver.Replay.parse_command "sync\r" = Sync);
  check_bool "bogus" true
    (Driver.Replay.parse_command "bogus"
    = Invalid "err unknown command \"bogus\"");
  (match Driver.Replay.request "nosuch" ~seed:3 with
  | Error _ as refused ->
    check_output "unknown workload" "resp 3 err unknown workload \"nosuch\""
      (Driver.Replay.render 3 refused)
  | Ok _ -> Alcotest.fail "an unknown workload was served");
  let response =
    {
      Driver.Server.rs_program = "wc";
      rs_status = "ok";
      rs_output = "hi\n";
      rs_exit_code = 0;
      rs_backend = "compiled";
      rs_generation = 2;
      rs_cold = false;
      rs_message = "";
      rs_wall_ms = 0.25;
    }
  in
  check_output "ok reply"
    "resp 7 ok program=wc gen=2 cold=false backend=compiled exit=0 \
     ms=0.250 bytes=3 md5=764efa883dda1e11db47671c4a3bbd9e"
    (Driver.Replay.render 7 (Ok response));
  check_output "failed reply"
    "resp 8 timeout program=wc msg=\"deadline\""
    (Driver.Replay.render 8
       (Ok { response with rs_status = "timeout"; rs_message = "deadline" }));
  (* the inputs a request serves: wc on seeds 1 and 0 answer as they did
     when serve built its own inputs (11 and 9 bytes) *)
  List.iter
    (fun (seed, bytes, md5) ->
      let source, input = Result.get_ok (Driver.Replay.request "wc" ~seed) in
      let r =
        Sim.Machine.run_reference
          (Driver.Pipeline.compile_base Driver.Config.default source)
          ~input
      in
      check_int "output bytes" bytes (String.length r.Sim.Machine.output);
      check_output "output md5" md5
        (Digest.to_hex (Digest.string r.Sim.Machine.output)))
    [ (1, 11, "eabdf465db6fb67c171d2b34ab0c908d");
      (0, 9, "3894b322de877c54be73d70542170bab") ]

let suite =
  [
    case "artifact: single-flight across domains" test_artifact_single_flight;
    case "artifact: failed build leaves key cold" test_artifact_failed_build_retries;
    case "artifact: no capacity bound, every entry stays"
      test_artifact_every_entry_stays;
    case "artifact: a dropped cache frees its artifacts"
      test_artifact_dropped_cache_collected;
    case "profile: shard absorb moves counts once" test_profile_shard_absorb;
    case "pool: workers run, drain, shut down" test_workers_run_and_shutdown;
    case "drift: signature flips with the input mix" test_drift_signature_flips;
    case "server: cold build then warm hits" test_server_cold_then_warm;
    case "server: N domains, one compile, identical bytes"
      test_server_concurrent_single_flight;
    slow_case "server: drift re-optimizes, observables identical"
      test_server_drift_reopt;
    case "server: trap contained by the guard ladder"
      test_server_guard_contains_trap;
    case "server: crashes degrade a rung, traps stay final"
      test_server_ladder;
    case "artifact: many contended keys, one build each"
      test_artifact_many_key_single_flight;
    slow_case "server: crash-restart resumes generation and counters"
      test_server_crash_restart_resumes;
    case "server: one record file per program, restart exact"
      test_one_record_file_per_program;
    case "server: a torn record is rewritten by sync, restore exact"
      test_torn_record_rewritten_by_sync;
    case "server: an unusable state dir fails create at once"
      test_unusable_state_dir_fails_create;
    case "server: restore drops state on config change"
      test_restore_drops_on_config_change;
    slow_case "server: one native prepare per generation"
      test_server_native_prepare_per_generation;
    slow_case "replay: mixed traffic, oracle-checked" test_replay_smoke;
    slow_case "replay: chaos matrix certified, zero escapes"
      test_replay_chaos_certification;
    slow_case "replay: durable report counts both waves"
      test_replay_durable_counts_both_waves;
    slow_case "replay: artifact faults hit the served plugin"
      test_replay_artifact_fault_hits_served_plugin;
    slow_case "replay: one-domain chaos report matches golden"
      test_replay_report_golden;
    slow_case "replay: golden report holds on a store seeded by a native replay"
      test_replay_golden_on_seeded_store;
    case "replay: unknown workload rejected" test_replay_rejects_unknown_workload;
    case "replay: input slices" test_input_slice;
    case "server: only a native server names a plugin to damage"
      test_native_artifact_only_on_native;
    case "server: shadow sampler counts per program" test_sampler_per_program;
    qcheck "serve protocol: any bytes parse to a command"
      (QCheck.make ~print:(Printf.sprintf "%S") protocol_line)
      prop_protocol_total;
    case "serve protocol: replies pinned" test_protocol_replies;
  ]
