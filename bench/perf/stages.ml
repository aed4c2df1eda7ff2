(* The pipeline rebuilt from its public stage functions, one span per
   layer call.  [run] is [Driver.Pipeline.run] and [serve_cold] is the
   cold path of [Driver.Server] (build the entry, then serve the first
   request on the compiled rung); both are checked against the real
   thing by the caller.  Only the configurations the benchmark uses are
   supported: compiled backend, no common-successor rewrites, no
   profile-guided layout. *)

open Driver

let sp = Spans.with_span

let sim_config (c : Config.t) =
  { Sim.Machine.default_config with
    Sim.Machine.fuel = c.Config.fuel;
    Sim.Machine.cancel = c.Config.cancel }

let check_supported (c : Config.t) =
  if c.Config.common_succ || c.Config.profile_layout
     || c.Config.backend <> `Compiled
  then invalid_arg "Stages: unsupported configuration"

let validate (c : Config.t) prog =
  if c.Config.validate then sp "mir.validate" (fun () -> Mir.Validate.check prog)

(* Pipeline.compile_base *)
let compile_base (c : Config.t) source =
  let prog = sp "minic.compile" (fun () -> Minic.Lower.compile source) in
  sp "mopt.switch_lower" (fun () ->
      Mopt.Switch_lower.lower_program c.Config.heuristic prog);
  sp "mopt.cleanup" (fun () -> Mopt.Cleanup.run prog);
  validate c prog;
  prog

let closure prog =
  let image = sp "sim.image_build" (fun () -> Sim.Image.build prog) in
  sp "sim.closure_compile" (fun () -> Sim.Compiled.compile image)

let finalize (c : Config.t) prog =
  ignore
    (sp "mopt.finalize" (fun () ->
         Mopt.Cleanup.finalize
           ~steal_delay_slots:c.Config.delay_fill_from_target prog));
  validate c prog

(* Reorder.Pass plus its certificate: the first half of
   Pipeline.reoptimize, and Pipeline.run's reorder stage *)
let reorder (c : Config.t) ~name base seqs table =
  let prog = Mir.Clone.program base in
  let report =
    sp "reorder.pass" (fun () ->
        Reorder.Pass.run ~options:c.Config.apply_options
          ~selector:c.Config.selector
          ~keep_original_default:c.Config.keep_original_default
          ?coalesce_machine:c.Config.coalesce_machine prog seqs table)
  in
  let verify =
    if not c.Config.verify then None
    else
      sp "check.verify" (fun () ->
          let s = Check.Verify.certify_report ~before:base ~after:prog report in
          if not (Check.Verify.ok s) then
            failwith (name ^ ": translation validation failed");
          Some s)
  in
  (prog, report, verify)

(* Pipeline.measure, split into image build, closure compile and the
   execution itself *)
let measure (c : Config.t) bank prog ~input : Pipeline.version =
  let code = closure prog in
  Sim.Predictor.bank_reset bank;
  let r =
    sp "sim.measure" (fun () ->
        Sim.Compiled.exec ~config:(sim_config c)
          ~sink:(Sim.Predictor.Sink_bank bank) code ~input)
  in
  let counters = r.Sim.Machine.counters in
  let mispredicts = Sim.Predictor.bank_mispredicts bank in
  let cycles =
    List.map
      (fun (m : Sim.Cycle_model.params) ->
        let penalized =
          match m.Sim.Cycle_model.predictor with
          | Some key -> (
            match List.assoc_opt key mispredicts with
            | Some n -> n
            | None -> counters.Sim.Counters.taken_branches)
          | None -> counters.Sim.Counters.taken_branches
        in
        ( m.Sim.Cycle_model.model_name,
          Sim.Cycle_model.cycles m counters ~mispredicts:penalized ))
      Sim.Cycle_model.all_machines
  in
  {
    Pipeline.v_program = prog;
    v_static_insns = Mir.Program.static_insn_count prog;
    v_counters = counters;
    v_output = r.Sim.Machine.output;
    v_exit_code = r.Sim.Machine.exit_code;
    v_mispredicts = mispredicts;
    v_cycles = cycles;
  }

let measure_both (c : Config.t) ~name ~seqs ~report ~verify base reord ~input =
  let orig = Mir.Clone.program base in
  finalize c orig;
  let bank = Sim.Predictor.bank c.Config.predictors in
  let original = measure c bank orig ~input in
  let reordered = measure c bank reord ~input in
  if
    (not (String.equal original.Pipeline.v_output reordered.Pipeline.v_output))
    || original.Pipeline.v_exit_code <> reordered.Pipeline.v_exit_code
  then failwith (name ^ ": reordered observables differ from original");
  {
    Pipeline.r_name = name;
    r_config = c;
    r_seqs = seqs;
    r_report = report;
    r_verify = verify;
    r_comb = [];
    r_pairs = [];
    r_stats = Reorder.Stats.of_report report;
    r_original = original;
    r_reordered = reordered;
  }

(* Pipeline.run *)
let run (c : Config.t) ~name ~source ~training_input ~test_input =
  check_supported c;
  let base = compile_base c source in
  let seqs = sp "reorder.detect" (fun () -> Pipeline.detect_seqs c base) in
  let table =
    match c.Config.profile with
    | `Static ->
      sp "analysis.static_profile" (fun () ->
          Reorder.Profiles.of_static base seqs)
    | (`Trained | `Both) as mode ->
      let train_prog, table =
        sp "reorder.instrument" (fun () -> Pipeline.instrument c base seqs)
      in
      let code = closure train_prog in
      ignore
        (sp "sim.train" (fun () ->
             Sim.Compiled.exec ~config:(sim_config c) ~profile:table code
               ~input:training_input));
      if mode = `Both then
        sp "analysis.static_profile" (fun () ->
            Reorder.Profiles.add_static base seqs table);
      table
  in
  let reord, report, verify = reorder c ~name base seqs table in
  finalize c reord;
  measure_both c ~name ~seqs ~report ~verify base reord ~input:test_input

(* Server.build_entry for a trained configuration, then the first
   request's input measured on both versions *)
let serve_cold (c : Config.t) ~name ~source ~input =
  check_supported c;
  if c.Config.profile <> `Trained then
    invalid_arg "Stages.serve_cold: trained profile only";
  let base = compile_base c source in
  let seqs = sp "reorder.detect" (fun () -> Pipeline.detect_seqs c base) in
  let train_prog, table =
    sp "reorder.instrument" (fun () -> Pipeline.instrument c base seqs)
  in
  let code = closure train_prog in
  (* the server tolerates a failed training run: partial counts serve *)
  (try
     ignore
       (sp "sim.train" (fun () ->
            Sim.Compiled.exec ~config:(sim_config c) ~profile:table code ~input))
   with _ -> ());
  let served, report, verify = reorder c ~name base seqs table in
  finalize c served;
  measure_both c ~name ~seqs ~report ~verify base served ~input
