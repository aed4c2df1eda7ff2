type response = {
  rs_program : string;
  rs_status : string;
  rs_output : string;
  rs_exit_code : int;
  rs_backend : string;
  rs_generation : int;
  rs_cold : bool;
  rs_message : string;
  rs_wall_ms : float;
}

type reopt_event = {
  re_program : string;
  re_generation : int;
  re_executions : int;
  re_signature : string;
}

type stats = {
  st_requests : int;
  st_cold : int;
  st_shadow_runs : int;
  st_merges : int;
  st_reopts : int;
  st_domains : int;
  st_caches : Sim.Artifact.stats list;
  st_native : Sim.Native.stats;
  st_restored : int;
  st_programs : (string * int * int) list;
}

(* the artifacts one generation serves from; swapped atomically as a
   whole so a request never mixes generations *)
type artifact = {
  a_generation : int;
  a_signature : string;  (* Drift.signature at (re-)optimization time *)
  a_served : Mir.Program.t;  (* reordered + finalized *)
  a_image : Sim.Image.t;
  a_compiled : Sim.Compiled.t;
  a_native : Sim.Native.t option Atomic.t;
      (* prepared by this generation's first native request *)
}

type entry = {
  e_key : string;
  e_name : string;
  e_source : string;  (* verbatim, so durable state can rebuild cold *)
  e_base : Mir.Program.t;  (* optimized base, never transformed *)
  e_seqs : Reorder.Detect.t list;
  e_train_compiled : Sim.Compiled.t;  (* instrumented clone, compiled *)
  e_global : Sim.Profile.t;  (* merged profile; counts under e_merge *)
  e_shards : (Mutex.t * Sim.Profile.t) array;  (* one per worker *)
  e_artifact : artifact Atomic.t;
  e_merge : Mutex.t;  (* serializes merge + drift check + re-opt *)
  mutable e_last_opt_execs : int;  (* under e_merge *)
  e_pending : int Atomic.t;  (* shadow runs since last merge attempt *)
  e_served : int Atomic.t;  (* successful requests, for the sampler *)
}

type t = {
  config : Config.t;
  fingerprint : string;  (* [config_fingerprint config] *)
  pool : Pool.Workers.t;
  programs : entry Sim.Artifact.t;  (* unbounded: every program served *)
  image_cache : Sim.Image.t Sim.Artifact.t;
  closure_cache : Sim.Compiled.t Sim.Artifact.t;
  requests : int Atomic.t;
  cold : int Atomic.t;
  shadow_runs : int Atomic.t;
  merges : int Atomic.t;
  reopts : int Atomic.t;
  events : reopt_event list ref;
  events_lock : Mutex.t;
  (* durable state: one record file per program, rewritten after every
     merge.  [None] = ephemeral server (the default) *)
  state_dir : string option;
  restored : int Atomic.t;  (* programs warm-started from disk *)
  mutable stopped : bool;
}

let domains t = Pool.Workers.size t.pool

(* Rendered explicitly from plain data — never [Hashtbl.hash]: the
   heuristic set carries a closure, and closures hash by code address,
   which differs between processes.  The fingerprint seeds the content
   keys persisted by {!State}, so it must be stable across restarts or
   every restored record would be dropped as a config mismatch. *)
let config_fingerprint (c : Config.t) =
  let b = function true -> "t" | false -> "f" in
  let machine =
    match c.Config.coalesce_machine with
    | None -> "-"
    | Some m ->
        Printf.sprintf "%s:%d:%d:%d:%s" m.Sim.Cycle_model.model_name
          m.Sim.Cycle_model.mispredict_penalty m.Sim.Cycle_model.indirect_penalty
          m.Sim.Cycle_model.load_latency
          (match m.Sim.Cycle_model.predictor with
          | None -> "-"
          | Some (h, cbits, e) -> Printf.sprintf "%d.%d.%d" h cbits e)
  in
  Printf.sprintf "%s|%s|%d.%s.%s|%s%s|%s|%s|%s"
    c.Config.heuristic.Mopt.Switch_lower.hs_name
    (match c.Config.selector with `Greedy -> "greedy" | `Exhaustive -> "exhaustive")
    c.Config.apply_options.Reorder.Apply.tail_dup_limit
    (b c.Config.apply_options.Reorder.Apply.improve_cmp)
    (b c.Config.apply_options.Reorder.Apply.improve_form4)
    (b c.Config.keep_original_default)
    (b c.Config.delay_fill_from_target)
    machine
    (Config.profile_name c.Config.profile)
    (string_of_int c.Config.fuel)

(* the guard every request runs under: no watchdog unless the request
   sets a deadline, degradation down the backend ladder *)
let policy = { Guard.default with Guard.degrade = true }

let content_key t source =
  Digest.to_hex (Digest.string (t.fingerprint ^ "\x00" ^ source))

let gen_key key gen = Printf.sprintf "%s#g%d" key gen

let signature_of t base seqs table =
  Reorder.Drift.signature ~selector:t.config.Config.selector
    ~keep_original_default:t.config.Config.keep_original_default base seqs
    table

(* build the servable artifacts of one generation, through the
   content-hash caches (image and closure entries are generation-keyed:
   a re-optimization produces new content) *)
let build_artifact t ~key ~generation ~signature served =
  let gk = gen_key key generation in
  let image =
    Sim.Artifact.find_or_build t.image_cache gk (fun () ->
        Sim.Image.build served)
  in
  let compiled =
    Sim.Artifact.find_or_build t.closure_cache gk (fun () ->
        Sim.Compiled.compile image)
  in
  {
    a_generation = generation;
    a_signature = signature;
    a_served = served;
    a_image = image;
    a_compiled = compiled;
    a_native = Atomic.make None;
  }

(* ------------------------------------------------------------------ *)
(* Durable state                                                       *)
(* ------------------------------------------------------------------ *)

(* one absolute record for a program entry; the caller must hold
   [e_merge] (or otherwise know the globals are quiescent) so counters
   and generation are read consistently *)
let program_record (e : entry) =
  let art = Atomic.get e.e_artifact in
  let ranges, combs = Sim.Profile.counters e.e_global in
  {
    State.p_key = e.e_key;
    p_name = e.e_name;
    p_source = e.e_source;
    p_generation = art.a_generation;
    p_signature = art.a_signature;
    p_executions = Sim.Profile.total_executions e.e_global;
    p_last_opt_execs = e.e_last_opt_execs;
    p_ranges = ranges;
    p_combs = combs;
  }

(* replace the entry's record file; caller holds [e_merge] *)
let persist t e =
  Option.iter (fun dir -> State.write ~dir (program_record e)) t.state_dir

(* every n-th successful request of a program runs the profiling
   shadow *)
let sample_every = 4

(* shadow runs accumulated across workers before an opportunistic merge *)
let merge_every = 8

(* new profile executions since the last (re-)optimization before the
   drift check may fire: the damper that keeps a handful of unusual
   requests from thrashing the artifacts *)
let drift_min_execs = 32

(* every built program, by name (content key among equal names) *)
let entries t =
  List.sort
    (fun a b -> compare (a.e_name, a.e_key) (b.e_name, b.e_key))
    (Sim.Artifact.ready t.programs)

(* the one entry constructor: parse + optimize the base, detect,
   instrument, let [fill] give the fresh table its counts, reoptimize
   under them and pre-build every serving artifact of [generation].
   [last_opt] defaults to the filled table's executions *)
let make_entry t ~name ~key ~source ~generation ?last_opt fill =
  let base = Pipeline.compile_base t.config source in
  let seqs = Pipeline.detect_seqs t.config base in
  let train_prog, table = Pipeline.instrument t.config base seqs in
  let train_compiled = Sim.Compiled.compile (Sim.Image.build train_prog) in
  fill base seqs table train_compiled;
  let served, _report = Pipeline.reoptimize t.config ~name base seqs table in
  let signature = signature_of t base seqs table in
  let artifact = build_artifact t ~key ~generation ~signature served in
  {
    e_key = key;
    e_name = name;
    e_source = source;
    e_base = base;
    e_seqs = seqs;
    e_train_compiled = train_compiled;
    e_global = table;
    e_shards =
      Array.init
        (Pool.Workers.size t.pool)
        (fun _ -> (Mutex.create (), Sim.Profile.copy_shape table));
    e_artifact = Atomic.make artifact;
    e_merge = Mutex.create ();
    e_last_opt_execs =
      Option.value last_opt ~default:(Sim.Profile.total_executions table);
    e_pending = Atomic.make 0;
    e_served = Atomic.make 0;
  }

(* cold path, single-flighted by the [programs] cache: train on this
   first request's input and serve generation 1 *)
let build_entry t ~name ~key ~source ~input =
  let entry =
    make_entry t ~name ~key ~source ~generation:1
      (fun base seqs table train_compiled ->
        match t.config.Config.profile with
        | `Static ->
          (* cold requests start on the pure static prediction: no
             training run; the online shard profiles and
             {!Reorder.Drift} take over as real counts accumulate and
             diverge from the prediction *)
          Reorder.Profiles.add_static base seqs table
        | (`Trained | `Both) as mode ->
          (* the training run: a trap or fuel exhaustion still leaves
             usable partial counts, so it is not fatal here — the
             guarded request itself will surface the failure to the
             caller *)
          (try
             ignore
               (Sim.Compiled.exec ~config:(Pipeline.sim_config t.config)
                  ~profile:table train_compiled ~input)
           with _ -> ());
          if mode = `Both then Reorder.Profiles.add_static base seqs table)
  in
  (* record the newborn entry: a crash before its first merge must
     still find the program (training counts included) on restart *)
  persist t entry;
  entry

(* warm-start one persisted program: recompile the base from its
   persisted source, restore the merged profile counters verbatim, and
   re-optimize under them at the persisted generation — no training
   run, no generation reset.  The selection signature is recomputed
   from the restored counters; with counters intact it reproduces the
   persisted one, and it is what future drift checks compare against. *)
let restore_entry t (p : State.program) =
  make_entry t ~name:p.State.p_name ~key:p.State.p_key
    ~source:p.State.p_source ~generation:p.State.p_generation
    ~last_opt:p.State.p_last_opt_execs (fun _ _ table _ ->
      let applied =
        Sim.Profile.set_counters table ~ranges:p.State.p_ranges
          ~combs:p.State.p_combs
      in
      if applied = 0 && (p.State.p_ranges <> [] || p.State.p_combs <> [])
      then
        failwith
          "restore: persisted counters do not match the program's shape")

(* replay persisted state into the caches, drop what no longer matches
   (config change, unparsable source); never fails the boot *)
let restore_state t dir =
  let r = State.load ~dir in
  List.iter
    (fun (p : State.program) ->
      if String.equal (content_key t p.State.p_source) p.State.p_key then
        match
          Sim.Artifact.find_or_build t.programs p.State.p_key (fun () ->
              restore_entry t p)
        with
        | _ -> Atomic.incr t.restored
        | exception _ -> ())
    r.State.r_programs

let create ?(config = Config.default) ?domains ?state_dir () =
  Option.iter (fun dir -> State.prepare ~dir) state_dir;
  let pool = Pool.Workers.create ?domains () in
  let t =
    {
      config;
      fingerprint = config_fingerprint config;
      pool;
      programs = Sim.Artifact.create ~name:"programs" ();
      image_cache = Sim.Artifact.create ~name:"image" ();
      closure_cache = Sim.Artifact.create ~name:"closure" ();
      requests = Atomic.make 0;
      cold = Atomic.make 0;
      shadow_runs = Atomic.make 0;
      merges = Atomic.make 0;
      reopts = Atomic.make 0;
      events = ref [];
      events_lock = Mutex.create ();
      state_dir;
      restored = Atomic.make 0;
      stopped = false;
    }
  in
  Option.iter (restore_state t) state_dir;
  t

(* ------------------------------------------------------------------ *)
(* Merge + drift                                                       *)
(* ------------------------------------------------------------------ *)

let record_event t ev =
  Mutex.lock t.events_lock;
  t.events := !(t.events) @ [ ev ];
  Mutex.unlock t.events_lock

(* caller holds e.e_merge *)
let merge_locked t (e : entry) =
  Array.iter
    (fun (m, shard) ->
      Mutex.lock m;
      ignore (Sim.Profile.absorb ~into:e.e_global shard);
      Mutex.unlock m)
    e.e_shards;
  Atomic.incr t.merges;
  let execs = Sim.Profile.total_executions e.e_global in
  if execs - e.e_last_opt_execs >= drift_min_execs then begin
    let art = Atomic.get e.e_artifact in
    let current = signature_of t e.e_base e.e_seqs e.e_global in
    if Reorder.Drift.drifted ~served:art.a_signature ~current then begin
      (* live traffic justifies a different ordering: rebuild from the
         cached base and swap generations atomically *)
      let served, _report =
        Pipeline.reoptimize t.config ~name:e.e_name e.e_base e.e_seqs
          e.e_global
      in
      let generation = art.a_generation + 1 in
      let artifact =
        build_artifact t ~key:e.e_key ~generation ~signature:current served
      in
      Atomic.set e.e_artifact artifact;
      (* the old generation's cache slots are dead weight now *)
      Sim.Artifact.remove t.image_cache (gen_key e.e_key art.a_generation);
      Sim.Artifact.remove t.closure_cache (gen_key e.e_key art.a_generation);
      Atomic.incr t.reopts;
      record_event t
        {
          re_program = e.e_name;
          re_generation = generation;
          re_executions = execs;
          re_signature = current;
        }
    end;
    e.e_last_opt_execs <- execs
  end;
  (* every merge rewrites the program's full (absolute) record, so a
     crash at any point loses at most the samples since this write *)
  persist t e

let try_merge t e =
  if Mutex.try_lock e.e_merge then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock e.e_merge)
      (fun () -> merge_locked t e)

(* every entry, each under its [e_merge] taken one at a time *)
let sync t =
  List.iter
    (fun e -> Mutex.protect e.e_merge (fun () -> merge_locked t e))
    (entries t)

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

let exec_rung t (art : artifact) backend ~cancel ~input =
  let sc = Pipeline.sim_config { t.config with Config.cancel } in
  match backend with
  | `Native ->
    let n =
      match Atomic.get art.a_native with
      | Some n when Sim.Native.current n -> n
      | _ -> (
        (* lazily, inside the guarded request; a failure is not held,
           so the next request tries again *)
        match
          Sim.Native.prepare ?cache_dir:t.config.Config.native_cache_dir
            art.a_image
        with
        | Ok n ->
          Atomic.set art.a_native (Some n);
          n
        | Error msg -> raise (Sim.Native.Unavailable msg))
    in
    Sim.Native.exec ~config:sc n ~input
  | `Compiled -> Sim.Compiled.exec ~config:sc art.a_compiled ~input
  | `Reference -> Sim.Machine.run_reference ~config:sc art.a_served ~input

(* the sampled profiling shadow: run the instrumented training clone on
   this request's input, recording into this worker's private shard.
   Failures are swallowed — the shadow feeds the profile, not the
   response *)
let shadow_run t (e : entry) ~worker ~input =
  let m, shard = e.e_shards.(worker) in
  Mutex.lock m;
  (try
     ignore
       (Sim.Compiled.exec ~config:(Pipeline.sim_config t.config)
          ~profile:shard e.e_train_compiled ~input)
   with _ -> ());
  Mutex.unlock m;
  Atomic.incr t.shadow_runs;
  let pending = 1 + Atomic.fetch_and_add e.e_pending 1 in
  if pending >= merge_every then begin
    Atomic.set e.e_pending 0;
    try_merge t e
  end

let handle ?deadline_ms ?inject t ~worker ~name ~source ~input =
  let t0 = Unix.gettimeofday () in
  Atomic.incr t.requests;
  let key = content_key t source in
  (* a per-request deadline arms the guard's watchdog; it rides the
     same {!Sim.Runtime.watchdog} machinery *)
  let policy = { policy with Guard.timeout_ms = deadline_ms } in
  (* chaos hook: fires inside the guarded closure exactly once, on the
     first rung, so an injected crash exercises the real recovery path
     (degradation to the next rung) *)
  let injected = ref false in
  let fire_inject () =
    if not !injected then begin
      injected := true;
      match inject with Some f -> f () | None -> ()
    end
  in
  let built = ref false in
  match
    Sim.Artifact.find_or_build t.programs key (fun () ->
        built := true;
        Atomic.incr t.cold;
        build_entry t ~name ~key ~source ~input)
  with
  | exception e ->
    {
      rs_program = name;
      rs_status = "crash";
      rs_output = "";
      rs_exit_code = -1;
      rs_backend = Config.backend_name t.config.Config.backend;
      rs_generation = 0;
      rs_cold = !built;
      rs_message = Printexc.to_string e;
      rs_wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
    }
  | entry ->
    let art = Atomic.get entry.e_artifact in
    let backend, outcome, _meta =
      Guard.ladder policy t.config (fun ~backend ~cancel ->
          fire_inject ();
          exec_rung t art backend ~cancel ~input)
    in
    let response =
      match outcome with
      | Pool.Ok (r : Sim.Machine.result) ->
        {
          rs_program = name;
          rs_status = "ok";
          rs_output = r.Sim.Machine.output;
          rs_exit_code = r.Sim.Machine.exit_code;
          rs_backend = Config.backend_name backend;
          rs_generation = art.a_generation;
          rs_cold = !built;
          rs_message = "";
          rs_wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
        }
      | o ->
        {
          rs_program = name;
          rs_status = Pool.outcome_status o;
          rs_output = "";
          rs_exit_code = -1;
          rs_backend = Config.backend_name backend;
          rs_generation = art.a_generation;
          rs_cold = !built;
          rs_message = Pool.outcome_message o;
          rs_wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
        }
    in
    (* profiling shadow on a sampling of successful requests *)
    if
      response.rs_status = "ok"
      && entry.e_seqs <> []
      && (1 + Atomic.fetch_and_add entry.e_served 1) mod sample_every = 0
    then shadow_run t entry ~worker ~input;
    response

let submit ?deadline_ms ?inject t ~name ~source ~input =
  Pool.Workers.run t.pool (fun ~worker ->
      handle ?deadline_ms ?inject t ~worker ~name ~source ~input)

let post ?deadline_ms ?inject t ~name ~source ~input k =
  Pool.Workers.post t.pool (fun ~worker ->
      k (handle ?deadline_ms ?inject t ~worker ~name ~source ~input))

let oracle t ~name ~source ~input =
  let key = content_key t source in
  let entry =
    Sim.Artifact.find_or_build t.programs key (fun () ->
        build_entry t ~name ~key ~source ~input)
  in
  let r =
    Sim.Machine.run_reference ~config:(Pipeline.sim_config t.config)
      entry.e_base ~input
  in
  (r.Sim.Machine.output, r.Sim.Machine.exit_code)

(* [ready], not [find]: the lookup must not count in the cache stats *)
let ready_entry t ~source =
  let key = content_key t source in
  List.find_opt (fun e -> String.equal e.e_key key) (Sim.Artifact.ready t.programs)

(* Only a native server loads plugins: on any other, a file an earlier
   native run left in the store for this generation is not its own *)
let native_artifact t ~source =
  match ready_entry t ~source with
  | Some e when t.config.Config.backend = `Native ->
    Sim.Native.store_path ?cache_dir:t.config.Config.native_cache_dir
      (Atomic.get e.e_artifact).a_image
  | _ -> None

let state_record t ~source =
  match (t.state_dir, ready_entry t ~source) with
  | Some dir, Some e -> Some (State.record_path ~dir e.e_key)
  | _ -> None

let stats t =
  {
    st_requests = Atomic.get t.requests;
    st_cold = Atomic.get t.cold;
    st_shadow_runs = Atomic.get t.shadow_runs;
    st_merges = Atomic.get t.merges;
    st_reopts = Atomic.get t.reopts;
    st_domains = Pool.Workers.size t.pool;
    st_caches =
      [
        Sim.Artifact.stats t.programs;
        Sim.Artifact.stats t.image_cache;
        Sim.Artifact.stats t.closure_cache;
      ];
    st_native = Sim.Native.stats ();
    st_restored = Atomic.get t.restored;
    st_programs =
      List.map
        (fun e ->
          ( e.e_name,
            (Atomic.get e.e_artifact).a_generation,
            Sim.Profile.total_executions e.e_global ))
        (entries t);
  }

let stats_json st =
  let ints = List.map (fun (k, n) -> (k, Json.Int n)) in
  let cache (c : Sim.Artifact.stats) =
    Json.Obj
      (("name", Json.Str c.a_name)
      :: ints
           [
             ("entries", c.a_entries); ("hits", c.a_hits);
             ("misses", c.a_misses); ("builds", c.a_builds);
             ("failures", c.a_failures);
           ])
  in
  let program (name, gen, execs) =
    Json.Obj
      (("name", Json.Str name)
      :: ints [ ("generation", gen); ("executions", execs) ])
  in
  let ns : Sim.Native.stats = st.st_native in
  Json.Obj
    (ints
       [
         ("requests", st.st_requests); ("cold", st.st_cold);
         ("shadow_runs", st.st_shadow_runs); ("merges", st.st_merges);
         ("reopts", st.st_reopts); ("domains", st.st_domains);
       ]
    @ [
        ("caches", Json.Arr (List.map cache st.st_caches));
        ( "native",
          Json.Obj
            (ints
               [
                 ("memo_hits", ns.memo_hits); ("disk_hits", ns.disk_hits);
                 ("misses", ns.misses); ("compiles", ns.compiles);
                 ("memo_entries", ns.memo_entries);
                 ("quarantined", ns.quarantined);
               ]) );
      ]
    @ ints [ ("restored", st.st_restored) ]
    @ [ ("programs", Json.Arr (List.map program st.st_programs)) ])

let reopt_events t =
  Mutex.lock t.events_lock;
  let es = !(t.events) in
  Mutex.unlock t.events_lock;
  es

let shutdown ?(crash = false) t =
  if not t.stopped then begin
    t.stopped <- true;
    (* stop accepting (the pool refuses new posts once stopping) and
       finish in-flight work *)
    Pool.Workers.shutdown t.pool;
    (* a graceful drain captures every straggling shard; a simulated
       power loss writes NOTHING more — restart must stand on the
       records the merges already wrote *)
    if not crash then sync t
  end
