type version = {
  v_program : Mir.Program.t;
  v_static_insns : int;
  v_counters : Sim.Counters.t;
  v_output : string;
  v_exit_code : int;
  v_mispredicts : ((int * int * int) * int) list;
  v_cycles : (string * int) list;
}

type result = {
  r_name : string;
  r_config : Config.t;
  r_seqs : Reorder.Detect.t list;
  r_report : Reorder.Pass.report;
  r_verify : Check.Verify.summary option;
  r_comb : (Reorder.Common_succ.run * Reorder.Common_succ.outcome) list;
  r_pairs : (Reorder.Common_succ.pair * Reorder.Common_succ.outcome) list;
  r_stats : Reorder.Stats.t;
  r_original : version;
  r_reordered : version;
}

let pct original changed =
  if original = 0 then 0.0
  else 100.0 *. float_of_int (changed - original) /. float_of_int original

let compile_base (config : Config.t) source =
  let prog = Minic.Lower.compile source in
  Mopt.Switch_lower.lower_program config.Config.heuristic prog;
  Mopt.Cleanup.run prog;
  if config.Config.validate then Mir.Validate.check prog;
  prog

let sim_config (config : Config.t) =
  {
    Sim.Machine.default_config with
    Sim.Machine.fuel = config.Config.fuel;
    Sim.Machine.cancel = config.Config.cancel;
  }

(* run a program under the configured execution backend; a caller that
   already holds the program's image passes it, so the fast backends
   do not lower a second time *)
let run_backend (config : Config.t) ?profile ?sink ?image prog ~input =
  Sim.Machine.run ~config:(sim_config config) ?profile ?sink ?image
    ?cache_dir:config.Config.native_cache_dir ~backend:config.Config.backend
    prog ~input

(* profile-guided layout: run the training input once more against this
   very binary (layouts need edge frequencies of the final CFG, which
   the instrumentation run's clone cannot provide), then place hot arms
   on the fall-through path *)
let apply_profile_layout (config : Config.t) prog ~training_input =
  Mopt.Delay_slot.strip prog;
  (* one lowering serves both the site names and the run itself *)
  let image = Sim.Image.build prog in
  let site_names = Sim.Image.sites image in
  let tables : (string, Mopt.Reposition.counts) Hashtbl.t =
    Hashtbl.create 8
  in
  let count_branch ~site ~taken =
    let func, label = site_names.(site) in
    let counts =
      match Hashtbl.find_opt tables func with
      | Some c -> c
      | None ->
        let c = Hashtbl.create 16 in
        Hashtbl.replace tables func c;
        c
    in
    let t, nt =
      match Hashtbl.find_opt counts label with Some x -> x | None -> (0, 0)
    in
    Hashtbl.replace counts label
      (if taken then (t + 1, nt) else (t, nt + 1))
  in
  let _ =
    run_backend config ~sink:(Sim.Predictor.Sink_fun count_branch) ~image prog
      ~input:training_input
  in
  ignore (Mopt.Reposition.run_profiled prog tables)

(* measure a finalized program on the test input with all predictors.
   With no history bits a predictor indexes its table by
   [site land (entries - 1)], so every table of at least [nsites]
   entries gives each site its own counter, and all such tables of one
   counter width fold identical streams: only the first of them per
   width is simulated, and its tallies are reported for the others. *)
let measure (config : Config.t) prog ~input =
  let image = Sim.Image.build prog in
  let keys = config.Config.predictors in
  let alias_free (h, _, e) = h = 0 && e >= image.Sim.Image.nsites in
  let simulated ((_, c, _) as key) =
    if alias_free key then
      List.find (fun ((_, c', _) as k) -> c' = c && alias_free k) keys
    else key
  in
  let bank =
    Sim.Predictor.bank (List.sort_uniq compare (List.map simulated keys))
  in
  let result =
    run_backend config ~sink:(Sim.Predictor.Sink_bank bank) ~image prog
      ~input
  in
  let tallies = Sim.Predictor.bank_mispredicts bank in
  let mispredicts =
    List.map (fun key -> (key, List.assoc (simulated key) tallies)) keys
  in
  let cycles =
    List.map
      (fun (m : Sim.Cycle_model.params) ->
        let penalized =
          match m.Sim.Cycle_model.predictor with
          | Some key -> (
            match List.assoc_opt key mispredicts with
            | Some n -> n
            | None ->
              (* the model's predictor was not simulated; fall back to
                 taken branches like the predictor-less machines *)
              result.Sim.Machine.counters.Sim.Counters.taken_branches)
          | None -> result.Sim.Machine.counters.Sim.Counters.taken_branches
        in
        ( m.Sim.Cycle_model.model_name,
          Sim.Cycle_model.cycles m result.Sim.Machine.counters
            ~mispredicts:penalized ))
      Sim.Cycle_model.all_machines
  in
  {
    v_program = prog;
    v_static_insns = Mir.Program.static_insn_count prog;
    v_counters = result.Sim.Machine.counters;
    v_output = result.Sim.Machine.output;
    v_exit_code = result.Sim.Machine.exit_code;
    v_mispredicts = mispredicts;
    v_cycles = cycles;
  }

(* ------------------------------------------------------------------ *)
(* Cache-aware entry points                                            *)
(* ------------------------------------------------------------------ *)

(* the serving daemon caches each stage's artifact by content hash and
   re-runs later stages alone (re-optimization against merged profiles
   must not re-parse or re-detect), so the batch pipeline's stages are
   also exposed one at a time *)

let detect_seqs (_ : Config.t) base =
  Reorder.Detect.find_program ~facts:true base

let instrument (config : Config.t) base seqs =
  let train_prog = Mir.Clone.program base in
  let table = Reorder.Profiles.instrument train_prog seqs in
  if config.Config.validate then Mir.Validate.check train_prog;
  (train_prog, table)

(* pass 2: reorder a clone of the base under [table]'s counts.
   Translation validation must look at the pass's output before any
   later rewrite or cleanup reshapes the blocks. *)
let reorder (config : Config.t) ~name base seqs table =
  let prog = Mir.Clone.program base in
  let report =
    Reorder.Pass.run ~options:config.Config.apply_options
      ~selector:config.Config.selector
      ~keep_original_default:config.Config.keep_original_default
      ?coalesce_machine:config.Config.coalesce_machine prog seqs table
  in
  let verify =
    if config.Config.verify then begin
      let summary =
        Check.Verify.certify_report ~before:base ~after:prog report
      in
      if not (Check.Verify.ok summary) then
        failwith
          (Printf.sprintf "%s: translation validation failed:\n  %s" name
             (String.concat "\n  " (Check.Verify.all_errors summary)));
      Some summary
    end
    else None
  in
  (prog, report, verify)

(* cleanup reinvocation and delay slots, then validation.  Profile
   layout needs the training input, so only {!run} applies it; there the
   frequency-driven placement must come after all cleanup (the static
   repositioner would override it), followed only by delay-slot
   filling *)
let finalize (config : Config.t) ?training_input prog =
  (match training_input with
  | Some training_input when config.Config.profile_layout ->
    Mopt.Cleanup.run prog;
    Reorder.Profiles.strip prog;
    apply_profile_layout config prog ~training_input;
    ignore
      (Mopt.Delay_slot.run ~steal:config.Config.delay_fill_from_target prog)
  | _ ->
    ignore
      (Mopt.Cleanup.finalize
         ~steal_delay_slots:config.Config.delay_fill_from_target prog));
  if config.Config.validate then Mir.Validate.check prog

(* pass 1: profile — a training run over an instrumented clone, a pure
   static prediction, or training backfilled by prediction *)
let train (config : Config.t) base seqs combs pairs ~training_input =
  match config.Config.profile with
  | `Static ->
    (* no training run at all: synthesize the counts from the CFG *)
    Reorder.Profiles.of_static base seqs
  | (`Trained | `Both) as mode ->
    let train_prog, table = instrument config base seqs in
    (* common-successor runs probe the same clone and table *)
    if combs <> [] then begin
      Reorder.Common_succ.instrument train_prog combs table;
      Reorder.Common_succ.instrument_pairs train_prog pairs table;
      if config.Config.validate then Mir.Validate.check train_prog
    end;
    let _ =
      run_backend config ~profile:table train_prog ~input:training_input
    in
    if mode = `Both then Reorder.Profiles.add_static base seqs table;
    table

let reoptimize config ~name base seqs table =
  let prog, report, _ = reorder config ~name base seqs table in
  finalize config prog;
  (prog, report)

let run ?(config = Config.default) ?on_stage ~name ~source ~training_input
    ~test_input () =
  let stage label f =
    match on_stage with
    | None -> f ()
    | Some report ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      report label (Unix.gettimeofday () -. t0);
      r
  in
  let base = stage "compile" (fun () -> compile_base config source) in

  (* detection on the optimized base *)
  let seqs, combs, pairs =
    stage "detect" (fun () ->
        let seqs = detect_seqs config base in
        let seq_blocks = Hashtbl.create 64 in
        List.iter
          (fun (s : Reorder.Detect.t) ->
            Hashtbl.replace seq_blocks s.Reorder.Detect.head ();
            List.iter
              (fun (it : Reorder.Detect.item) ->
                List.iter
                  (fun l -> Hashtbl.replace seq_blocks l ())
                  it.Reorder.Detect.item_blocks)
              s.Reorder.Detect.items)
          seqs;
        let combs =
          if config.Config.common_succ then
            Reorder.Common_succ.find_program
              ~exclude:(Hashtbl.mem seq_blocks)
              ~first_id:1_000_000 base
          else []
        in
        let pairs =
          Reorder.Common_succ.find_pairs base combs ~first_id:2_000_000
        in
        (seqs, combs, pairs))
  in

  (* The original depends only on the base: it is cloned here, then
     finalized and measured on a second domain while this one trains,
     reorders, finalizes and measures the reordered clone.  A step
     failing after the fork is kept as a value with its rank in the
     sequential order (finalize original, finalize reordered, measure
     original, measure reordered), so the failure a sequential run would
     have met first is the one raised; training and reordering come
     before all four and raise straight through {!Pool.both}. *)
  let orig = Mir.Clone.program base in
  let step rank f =
    match f () with
    | v -> Ok v
    | exception e -> Error (rank, e, Printexc.get_raw_backtrace ())
  in
  let measure_original () =
    Result.bind
      (step 0 (fun () -> finalize config ~training_input orig))
      (fun () -> step 2 (fun () -> measure config orig ~input:test_input))
  in
  let reorder_and_measure () =
    let table =
      stage "train" (fun () ->
          train config base seqs combs pairs ~training_input)
    in
    let reord, report, verify, comb_outcomes, pair_outcomes =
      stage "reorder" (fun () ->
          let reord, report, verify = reorder config ~name base seqs table in
          (* within-run permutations first (they re-emit each run's edges
             from the run record), then super-branch pair swaps, which
             relink those edges between the groups *)
          let comb_outcomes =
            List.map
              (fun r -> (r, Reorder.Common_succ.apply reord table r))
              combs
          in
          let pair_outcomes =
            List.map
              (fun pr -> (pr, Reorder.Common_succ.apply_pair reord table pr))
              pairs
          in
          (reord, report, verify, comb_outcomes, pair_outcomes))
    in
    let measured =
      Result.bind
        (step 1 (fun () ->
             stage "cleanup" (fun () -> finalize config ~training_input reord)))
        (fun () ->
          let t0 = Unix.gettimeofday () in
          Result.map
            (fun v -> (v, t0))
            (step 3 (fun () -> measure config reord ~input:test_input)))
    in
    (report, verify, comb_outcomes, pair_outcomes, measured)
  in
  let original, (report, verify, comb_outcomes, pair_outcomes, measured) =
    Pool.both measure_original reorder_and_measure
  in
  let original, reordered =
    match (original, measured) with
    | Ok o, Ok (r, t0) ->
      (* the measure stage ends at the join *)
      Option.iter (fun f -> f "measure" (Unix.gettimeofday () -. t0)) on_stage;
      (o, r)
    | Error (i, e, bt), Error (j, _, _) when i < j ->
      Printexc.raise_with_backtrace e bt
    | _, Error (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | Error (_, e, bt), Ok _ -> Printexc.raise_with_backtrace e bt
  in
  if not (String.equal original.v_output reordered.v_output) then
    failwith
      (Printf.sprintf "%s: reordered output differs from original" name);
  if original.v_exit_code <> reordered.v_exit_code then
    failwith (Printf.sprintf "%s: reordered exit code differs" name);
  {
    r_name = name;
    r_config = config;
    r_seqs = seqs;
    r_report = report;
    r_verify = verify;
    r_comb = comb_outcomes;
    r_pairs = pair_outcomes;
    r_stats = Reorder.Stats.of_report report;
    r_original = original;
    r_reordered = reordered;
  }

(* ------------------------------------------------------------------ *)
(* Parallel measurement jobs                                           *)
(* ------------------------------------------------------------------ *)

type job = {
  job_name : string;
  job_config : Config.t;
  job_source : string;
  job_training_input : string;
  job_test_input : string;
}

let job ?(config = Config.default) ~name ~source ~training_input ~test_input ()
    =
  {
    job_name = name;
    job_config = config;
    job_source = source;
    job_training_input = training_input;
    job_test_input = test_input;
  }

(* ------------------------------------------------------------------ *)
(* Guarded execution: watchdogs, backend degradation                   *)
(* ------------------------------------------------------------------ *)

exception Wrong_result of string

type job_outcome = {
  o_index : int;
  o_name : string;
  o_outcome : result Pool.outcome;
  o_attempts : int;
  o_retried : int;
  o_backend : string;
  o_degraded : bool;
  o_errors : string list;
  o_injected : string;
  o_seconds : float;
}

(* defense-in-depth re-check of the pipeline's own invariant, outside
   {!run}: this is what catches a wrong-result fault that corrupted the
   observables after the pipeline's internal comparison passed *)
let check_observables name r =
  if
    (not (String.equal r.r_original.v_output r.r_reordered.v_output))
    || r.r_original.v_exit_code <> r.r_reordered.v_exit_code
  then
    raise
      (Wrong_result
         (Printf.sprintf "%s: reordered observables diverge from original" name));
  r

let run_guarded_job ?fault ~index ~policy j =
  let requested = j.job_config.Config.backend in
  let injected =
    match fault with
    | Some (f : Inject.fault) -> Inject.kind_name f.Inject.i_kind
    | None -> ""
  in
  let t0 = Unix.gettimeofday () in
  let attempt_job ~backend ~cancel =
    (* faults are armed only against the requested backend, so the
       degradation ladder has a real recovery path *)
    let armed = if backend = requested then fault else None in
    let config = { j.job_config with Config.backend; Config.cancel = cancel } in
    let config =
      match armed with
      | None -> config
      | Some (f : Inject.fault) -> (
        match f.Inject.i_kind with
        | Inject.Raise -> raise (Inject.Injected index)
        | Inject.Trap ->
          raise
            (Sim.Runtime.Trap (Printf.sprintf "injected trap (job %d)" index))
        | Inject.Fuel -> { config with Config.fuel = 64 }
        | Inject.Deadline ->
          { config with Config.cancel = Some (fun () -> true) }
        | Inject.Corrupt -> config)
    in
    let r =
      run ~config ~name:j.job_name ~source:j.job_source
        ~training_input:j.job_training_input ~test_input:j.job_test_input ()
    in
    let r =
      match armed with
      | Some { Inject.i_kind = Inject.Corrupt; _ } ->
        {
          r with
          r_reordered =
            {
              r.r_reordered with
              v_output = r.r_reordered.v_output ^ "\000<corrupted>";
            };
        }
      | _ -> r
    in
    check_observables j.job_name r
  in
  let backend, outcome, meta = Guard.ladder policy j.job_config attempt_job in
  {
    o_index = index;
    o_name = j.job_name;
    o_outcome = outcome;
    o_attempts = meta.Guard.m_attempts;
    o_retried = meta.Guard.m_attempts - 1;
    o_backend = Config.backend_name backend;
    o_degraded = backend <> requested;
    o_errors = meta.Guard.m_errors;
    o_injected = injected;
    o_seconds = Unix.gettimeofday () -. t0;
  }

let run_jobs_guarded ?domains ?(policy = Guard.default) ?(inject = []) jobs =
  let indexed = List.mapi (fun i j -> (i, j)) jobs in
  Pool.map ?domains
    (fun (i, j) ->
      run_guarded_job ?fault:(Inject.find inject ~job:i) ~index:i ~policy j)
    indexed

type containment = {
  c_planted : int;
  c_recovered : int;
  c_contained : int;
  c_escapes : string list;
  c_collateral : string list;
}

let containment faults outcomes =
  let ok o = Pool.outcome_ok o.o_outcome in
  let victims =
    List.map (fun (f : Inject.fault) -> (f, List.nth outcomes f.Inject.i_job))
      faults
  in
  let recovered = List.filter (fun (_, o) -> ok o) victims in
  {
    c_planted = List.length victims;
    c_recovered = List.length recovered;
    c_contained = List.length victims - List.length recovered;
    c_escapes =
      List.filter_map
        (fun (f, o) ->
          if o.o_degraded then None
          else
            Some
              (Format.asprintf "%a: fault left no trace (escape)"
                 Inject.pp_fault f))
        recovered;
    c_collateral =
      List.filter_map
        (fun o ->
          if o.o_injected = "" && not (ok o) then
            Some
              (Printf.sprintf "job %d (%s) failed without a fault: %s"
                 o.o_index o.o_name (Pool.outcome_message o.o_outcome))
          else None)
        outcomes;
  }
