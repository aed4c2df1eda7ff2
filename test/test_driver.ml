(* Driver-level tests: configuration, measurement plumbing, percentage
   arithmetic and the stats aggregation used by the benchmark tables. *)

open Helpers

let test_pct () =
  Alcotest.(check (float 0.001)) "decrease" (-10.0) (Driver.Pipeline.pct 1000 900);
  Alcotest.(check (float 0.001)) "increase" 25.0 (Driver.Pipeline.pct 400 500);
  Alcotest.(check (float 0.001)) "zero base" 0.0 (Driver.Pipeline.pct 0 5)

let test_paper_predictors () =
  check_int "14 predictor configurations" 14
    (List.length Driver.Config.paper_predictors);
  check_bool "includes the Ultra's (0,2)x2048" true
    (List.mem (0, 2, 2048) Driver.Config.paper_predictors)

let simple_src =
  "int main() { int c; int n = 0; while ((c = getchar()) != EOF) { if (c == \
   'a') n++; else if (c == 'b') n += 2; } print_int(n); return 0; }"

let test_measure_fields () =
  let r =
    reorder_pipeline ~training_input:"aabbbcc" ~test_input:"abcabc" simple_src
  in
  let v = r.Driver.Pipeline.r_original in
  check_int "all predictors measured" 14
    (List.length v.Driver.Pipeline.v_mispredicts);
  check_int "all machines modelled" 3 (List.length v.Driver.Pipeline.v_cycles);
  check_bool "static size positive" true (v.Driver.Pipeline.v_static_insns > 0);
  check_output "output captured" "6" v.Driver.Pipeline.v_output

let test_predictor_monotone_entries () =
  (* more entries never increase mispredictions on our deterministic,
     alias-dominated workloads' original runs (sanity of wiring, not a
     general theorem; checked on one program) *)
  let w = Workloads.Registry.find "wc" in
  let r =
    reorder_pipeline
      ~training_input:(String.sub (Lazy.force w.Workloads.Spec.training_input) 0 3000)
      ~test_input:(String.sub (Lazy.force w.Workloads.Spec.test_input) 0 3000)
      w.Workloads.Spec.source
  in
  let m = r.Driver.Pipeline.r_original.Driver.Pipeline.v_mispredicts in
  let get e = List.assoc (0, 2, e) m in
  check_bool "32 entries >= 2048 entries" true (get 32 >= get 2048)

let test_cycles_orderable () =
  let r =
    reorder_pipeline ~training_input:"aaabbb" ~test_input:"aaabbb" simple_src
  in
  let cycles = r.Driver.Pipeline.r_original.Driver.Pipeline.v_cycles in
  List.iter
    (fun (name, c) ->
      check_bool (name ^ " cycles >= insns") true
        (c
        >= r.Driver.Pipeline.r_original.Driver.Pipeline.v_counters
             .Sim.Counters.insns))
    cycles

let test_stats_aggregation () =
  let r =
    reorder_pipeline ~training_input:"aaaaabbbbbccccc" ~test_input:"cabcab"
      simple_src
  in
  let s = r.Driver.Pipeline.r_stats in
  check_bool "detected >= reordered" true
    (s.Reorder.Stats.total_seqs >= s.Reorder.Stats.reordered_seqs);
  check_int "one length entry per reordered sequence"
    s.Reorder.Stats.reordered_seqs
    (List.length s.Reorder.Stats.orig_branch_lengths)

let test_stats_merge_and_histogram () =
  let h = Reorder.Stats.histogram [ 2; 3; 2; 2; 5 ] in
  Alcotest.(check (list (pair int int))) "histogram" [ (2, 3); (3, 1); (5, 1) ] h;
  let a =
    {
      Reorder.Stats.total_seqs = 2;
      reordered_seqs = 1;
      orig_branch_lengths = [ 2 ];
      final_branch_lengths = [ 4 ];
      avg_len_before = 2.0;
      avg_len_after = 4.0;
    }
  in
  let m = Reorder.Stats.merge a a in
  check_int "merged totals" 4 m.Reorder.Stats.total_seqs;
  Alcotest.(check (float 0.001)) "merged average" 2.0 m.Reorder.Stats.avg_len_before

let test_output_mismatch_detected () =
  (* the pipeline raises if outputs diverge; simulate by feeding a
     program whose behaviour is fine — then check the happy path only.
     (A genuine mismatch would be a transformation bug, which the other
     suites hunt; here we just pin the guard's existence.) *)
  let r = reorder_pipeline ~training_input:"ab" ~test_input:"ba" simple_src in
  check_output "outputs equal by construction"
    r.Driver.Pipeline.r_original.Driver.Pipeline.v_output
    r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_output

(* [reoptimize] is [run]'s pass 2 without the training run: on the same
   base, sequences and trained table it yields the very MIR [run]
   measures, so the server serves what the batch pipeline measures *)
let test_reoptimize_equals_run () =
  let trunc s = String.sub s 0 (min 2000 (String.length s)) in
  let reordered = ref 0 in
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let source = w.Workloads.Spec.source in
      let training_input = trunc (Lazy.force w.Workloads.Spec.training_input) in
      let test_input = trunc (Lazy.force w.Workloads.Spec.test_input) in
      List.iter
        (fun heuristic ->
          let config = { Driver.Config.default with Driver.Config.heuristic } in
          let r =
            Driver.Pipeline.run ~config ~name ~source ~training_input
              ~test_input ()
          in
          let base = Driver.Pipeline.compile_base config source in
          let seqs = Driver.Pipeline.detect_seqs config base in
          let train_prog, table = Driver.Pipeline.instrument config base seqs in
          ignore
            (Sim.Compiled.exec ~profile:table
               (Sim.Compiled.compile (Sim.Image.build train_prog))
               ~input:training_input);
          let served, report =
            Driver.Pipeline.reoptimize config ~name base seqs table
          in
          reordered := !reordered + Reorder.Pass.reordered_count report;
          check_output
            (Printf.sprintf "%s, set %s: reoptimize = run" name
               heuristic.Mopt.Switch_lower.hs_name)
            (Mir.Program.to_string
               r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_program)
            (Mir.Program.to_string served))
        [ Mopt.Switch_lower.set_i; Mopt.Switch_lower.set_ii;
          Mopt.Switch_lower.set_iii ])
    [ "wc"; "grep"; "lex" ];
  check_bool "some sequences were reordered" true (!reordered > 0)

(* [measure] simulates only one alias-free predictor per counter width;
   every key must still read what its own predictor, fed event by
   event, reads.  Per program, the keys are the largest table below its
   site count [p], half of it, tables of at least [nsites] entries and
   history-indexed ones, both counter widths.  wc (20 sites) and sed
   (58) sit on both sides of 32, grep has exactly 32, and sed's
   32-entry table aliases. *)
let test_measure_collapse_exact () =
  let aliased = ref false in
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let input = String.sub (Lazy.force w.Workloads.Spec.test_input) 0 3000 in
      let prog = compile_final w.Workloads.Spec.source in
      let nsites = (Sim.Image.build prog).Sim.Image.nsites in
      let rec below q = if 2 * q < nsites then below (2 * q) else q in
      let p = below 1 in
      let keys =
        [ (0, 2, 2048); (0, 2, p); (0, 1, p); (0, 2, 2 * p); (2, 2, 2 * p);
          (0, 1, p / 2); (0, 1, 2 * p); (0, 2, 4 * p); (4, 1, 4 * p);
          (0, 1, 2048) ]
      in
      let config = { Driver.Config.default with Driver.Config.predictors = keys } in
      let v = Driver.Pipeline.measure config prog ~input in
      let oracle =
        List.map
          (fun (h, c, e) ->
            Sim.Predictor.make ~history_bits:h ~counter_bits:c ~entries:e)
          keys
      in
      let r =
        Sim.Compiled.exec
          ~sink:
            (Sim.Predictor.Sink_fun
               (fun ~site ~taken ->
                 List.iter (fun p -> Sim.Predictor.access p ~site ~taken) oracle))
          (Sim.Compiled.compile (Sim.Image.build prog))
          ~input
      in
      let mispredicts =
        List.map2 (fun k p -> (k, Sim.Predictor.mispredicts p)) keys oracle
      in
      if List.assoc (0, 2, p) mispredicts <> List.assoc (0, 2, 2048) mispredicts
      then aliased := true;
      let counters = r.Sim.Machine.counters in
      let cycles =
        List.map
          (fun (m : Sim.Cycle_model.params) ->
            let penalized =
              match m.Sim.Cycle_model.predictor with
              | Some key -> List.assoc key mispredicts
              | None -> counters.Sim.Counters.taken_branches
            in
            ( m.Sim.Cycle_model.model_name,
              Sim.Cycle_model.cycles m counters ~mispredicts:penalized ))
          Sim.Cycle_model.all_machines
      in
      check_bool (name ^ ": mispredicts equal separate predictors") true
        (v.Driver.Pipeline.v_mispredicts = mispredicts);
      check_bool (name ^ ": cycles equal separate predictors") true
        (v.Driver.Pipeline.v_cycles = cycles))
    [ "wc"; "grep"; "sed" ];
  check_bool "a table below the site count aliases" true !aliased

let suite =
  [
    case "driver: percentage arithmetic" test_pct;
    case "driver: Table 6 predictor grid" test_paper_predictors;
    case "driver: measurement fields" test_measure_fields;
    case "driver: predictor size wiring" test_predictor_monotone_entries;
    case "driver: cycle models bounded below by instructions" test_cycles_orderable;
    case "driver: stats aggregation" test_stats_aggregation;
    case "driver: stats merge and histogram" test_stats_merge_and_histogram;
    case "driver: output equality guard" test_output_mismatch_detected;
    case "driver: reoptimize serves run's reordered MIR"
      test_reoptimize_equals_run;
    case "driver: measure collapses only alias-free predictors"
      test_measure_collapse_exact;
  ]
