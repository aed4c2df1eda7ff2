(* Tests for the translation-validation and fuzzing subsystem
   (lib/check): the verifier certifies every workload rewrite under
   every heuristic set, rejects a hand-mutated wrong-default-target
   clone (so it is not vacuously true), and the fuzz orchestrator's
   normal and injection modes both hold up on a seeded corpus. *)

open Helpers

(* compile + detect + train + reorder, returning everything the
   verifier needs; mirrors the pipeline's pass-2 stages *)
let transform ?(config = Driver.Config.default) ~training src =
  let base = Driver.Pipeline.compile_base config src in
  let seqs = Reorder.Detect.find_program base in
  let train_prog = Mir.Clone.program base in
  let table = Reorder.Profiles.instrument train_prog seqs in
  let _ = Sim.Machine.run train_prog ~profile:table ~input:training in
  let reord = Mir.Clone.program base in
  let report = Reorder.Pass.run reord seqs table in
  (base, reord, report)

let dispatch_src =
  "int g;\n\
   int f(int c) { if (c == 5) return 1; g++; if (c >= 10 && c <= 20) return \
   2; if (c != 64) return 3; return 0; }\n\
   int main() { int c; int s = 0; while ((c = getchar()) != EOF) { s = s * 31 \
   + f(c); s = s % 65536; } print_int(s); putchar(' '); print_int(g); return \
   0; }"

(* a training input that makes the later conditions hot, forcing a
   genuine reorder with duplicated side effects *)
let dispatch_training = String.concat "" (List.init 60 (fun i ->
    String.make 1 (Char.chr (40 + (i mod 60)))))

let test_certifies_dispatch () =
  let base, reord, report = transform ~training:dispatch_training dispatch_src in
  check_bool "something reordered" true
    (Reorder.Pass.reordered_count report >= 1);
  let summary = Check.Verify.certify_report ~before:base ~after:reord report in
  if not (Check.Verify.ok summary) then
    Alcotest.failf "verifier rejected a correct rewrite:\n%s"
      (String.concat "\n" (Check.Verify.all_errors summary));
  let pieces =
    List.fold_left
      (fun acc r -> acc + r.Check.Verify.v_pieces)
      0 summary.Check.Verify.seq_results
  in
  check_bool "certified at least one partition piece" true (pieces > 0)

(* hand-mutate the certified result: point one live chain edge of the
   reordered dispatcher at the wrong returning block and require the
   verifier to object.  This is the direct guard against a verifier
   that accepts everything. *)
let test_rejects_wrong_default_target () =
  let base, reord, report = transform ~training:dispatch_training dispatch_src in
  let applied =
    List.find_map
      (fun (sr : Reorder.Pass.seq_report) ->
        match sr.Reorder.Pass.sr_outcome with
        | Reorder.Pass.Reordered a -> Some (sr.Reorder.Pass.sr_seq, a)
        | _ -> None)
      report.Reorder.Pass.seq_reports
  in
  match applied with
  | None -> Alcotest.fail "expected a reordered sequence to mutate"
  | Some (seq, a) -> (
    let fb = Mir.Program.find_func base seq.Reorder.Detect.func_name in
    let fa = Mir.Program.find_func reord seq.Reorder.Detect.func_name in
    let edges =
      Check.Verify.live_leaf_edges ~fn_before:fb ~fn_after:fa
        ~var:seq.Reorder.Detect.var ~entry:a.Reorder.Apply.replica_entry
    in
    check_bool "chain has live exit edges" true (edges <> []);
    (* the deepest live edge carries the complement values: the default *)
    let chain_label, dir, succ = List.nth edges (List.length edges - 1) in
    let wrong =
      List.find
        (fun (bb : Mir.Block.t) ->
          (match bb.Mir.Block.term.kind with
          | Mir.Block.Ret _ -> true
          | _ -> false)
          && bb.Mir.Block.label <> succ
          && bb.Mir.Block.label <> Check.Verify.resolve fa succ)
        fb.Mir.Func.blocks
    in
    let b = Mir.Func.find_block fa chain_label in
    (match b.Mir.Block.term.kind with
    | Mir.Block.Br (cond, taken, fall) ->
      let kind =
        match dir with
        | `Taken -> Mir.Block.Br (cond, wrong.Mir.Block.label, fall)
        | `Fall -> Mir.Block.Br (cond, taken, wrong.Mir.Block.label)
      in
      b.Mir.Block.term <- Mir.Block.term kind
    | _ -> Alcotest.fail "live edge did not come from a branch");
    let summary = Check.Verify.certify_report ~before:base ~after:reord report in
    check_bool "verifier rejects the wrong target" false
      (Check.Verify.ok summary))

let test_pipeline_verify_flag () =
  let config = { Driver.Config.default with Driver.Config.verify = true } in
  let r =
    reorder_pipeline ~config ~training_input:dispatch_training
      ~test_input:"some other bytes entirely: 5 5 @ABC" dispatch_src
  in
  match r.Driver.Pipeline.r_verify with
  | None -> Alcotest.fail "verify=true produced no summary"
  | Some s -> check_bool "pipeline summary certified" true (Check.Verify.ok s)

(* every Table 3 workload under every heuristic set runs the pipeline
   with translation validation on; Pipeline.run raises if the verifier
   rejects, so surviving the sweep is the property *)
let small_slice s = String.sub s 0 (min 4000 (String.length s))

let workload_verify_case (w : Workloads.Spec.t) =
  slow_case (w.Workloads.Spec.name ^ ": rewrite certified under all sets")
    (fun () ->
      List.iter
        (fun hs ->
          let config =
            {
              Driver.Config.default with
              Driver.Config.heuristic = hs;
              Driver.Config.verify = true;
            }
          in
          let r =
            reorder_pipeline ~config
              ~training_input:
                (small_slice (Lazy.force w.Workloads.Spec.training_input))
              ~test_input:(small_slice (Lazy.force w.Workloads.Spec.test_input))
              w.Workloads.Spec.source
          in
          match r.Driver.Pipeline.r_verify with
          | Some s -> check_bool "certified" true (Check.Verify.ok s)
          | None -> Alcotest.fail "no verify summary")
        Mopt.Switch_lower.all_sets)

let test_fuzz_smoke () =
  let stats = Check.Fuzz.run ~cases:20 ~seed:7 () in
  if not (Check.Fuzz.ok stats) then
    Alcotest.failf "fuzz smoke failed:\n%s"
      (Format.asprintf "%a" Check.Fuzz.pp_stats stats);
  check_bool "corpus exercised the pass" true (stats.Check.Fuzz.st_reordered > 0);
  check_bool "pieces certified" true (stats.Check.Fuzz.st_pieces > 0)

let test_fuzz_inject_caught () =
  let stats = Check.Fuzz.run ~cases:15 ~seed:42 ~inject:true () in
  check_bool "injection run passed" true (Check.Fuzz.ok stats);
  check_bool "bugs were planted" true (stats.Check.Fuzz.st_injected > 0);
  check_int "every planted bug caught" stats.Check.Fuzz.st_injected
    stats.Check.Fuzz.st_caught;
  match stats.Check.Fuzz.st_counterexample_blocks with
  | None -> Alcotest.fail "no shrunk counterexample recorded"
  | Some blocks ->
    check_bool "shrunk counterexample is small (<= 10 blocks)" true
      (blocks <= 10)

let test_spec_of_seed_deterministic () =
  let a = Check.Gen.spec_of_seed 12345 and b = Check.Gen.spec_of_seed 12345 in
  check_output "same seed, same spec" (Check.Gen.show_spec a)
    (Check.Gen.show_spec b);
  let c = Check.Gen.spec_of_seed 12346 in
  check_bool "different seed, different spec" true
    (not (String.equal (Check.Gen.show_spec a) (Check.Gen.show_spec c)))

let test_generated_specs_validate () =
  List.iter
    (fun spec ->
      Mir.Validate.check ~allow_switch:true (Check.Gen.to_program spec))
    (Check.Gen.sample ~seed:99 ~n:50 Check.Gen.gen_spec)

let test_shrink_keeps_predicate () =
  (* shrinking must preserve the caller's predicate and never grow the
     spec *)
  let spec = Check.Gen.spec_of_seed 4242 in
  let keep (s : Check.Gen.spec) = s.Check.Gen.sp_seq.Check.Gen.sq_conds <> [] in
  if keep spec then begin
    let shrunk = Check.Gen.shrink_spec ~keep spec in
    check_bool "predicate still holds" true (keep shrunk);
    Mir.Validate.check ~allow_switch:true (Check.Gen.to_program shrunk)
  end

let suite =
  [
    case "verifier certifies a reordered dispatcher" test_certifies_dispatch;
    case "verifier rejects a wrong default target"
      test_rejects_wrong_default_target;
    case "pipeline --verify populates and certifies" test_pipeline_verify_flag;
    case "spec_of_seed is deterministic" test_spec_of_seed_deterministic;
    case "generated specs validate" test_generated_specs_validate;
    case "shrinking preserves the predicate" test_shrink_keeps_predicate;
    slow_case "fuzz smoke (20 cases, all backends)" test_fuzz_smoke;
    slow_case "fuzz injection mode catches planted bugs"
      test_fuzz_inject_caught;
  ]
  @ List.map workload_verify_case Workloads.Registry.all
