(* Tests for branch coalescing into indirect jumps (the [UhW97]
   companion transformation and the paper's Section 9 suggestion to pick
   between reordering and indirect jumps using the profile). *)

open Helpers

let chain_src n =
  (* a dense n-way equality chain: an ideal coalescing candidate *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf "int f(int c) {\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  if (c == %d) return %d;\n" (100 + i) (i + 1))
  done;
  Buffer.add_string buf "  return 0;\n}\n";
  Buffer.add_string buf
    "int main() { int c; int s = 0; while ((c = getchar()) != EOF) s += f(c); \
     print_int(s); return 0; }\n";
  Buffer.contents buf

let seq_of src =
  let prog = compile src in
  let fn = Mir.Program.find_func prog "f" in
  let seqs = Reorder.Detect.find_program prog in
  let seq =
    List.find (fun s -> String.equal s.Reorder.Detect.func_name "f") seqs
  in
  (prog, fn, seq)

let test_coalescible_dense_chain () =
  let _, fn, seq = seq_of (chain_src 8) in
  match Reorder.Coalesce.coalescible fn seq ~max_span:512 with
  | Some plan ->
    check_int "lo" 100 plan.Reorder.Coalesce.table_lo;
    check_int "hi" 107 plan.Reorder.Coalesce.table_hi;
    check_int "entries" 8 (Array.length plan.Reorder.Coalesce.targets)
  | None -> Alcotest.fail "dense chain should be coalescible"

let test_not_coalescible_rays () =
  let _, fn, seq =
    seq_of
      "int f(int c) { if (c > 100) return 1; if (c == 5) return 2; return 0; }\n\
       int main() { return f(getchar()); }"
  in
  check_bool "unbounded range blocks coalescing" true
    (Reorder.Coalesce.coalescible fn seq ~max_span:512 = None)

let test_not_coalescible_side_effects () =
  let _, fn, seq =
    seq_of
      "int g; int f(int c) { if (c == 1) return 1; g++; if (c == 2) return 2; \
       return 0; }\n\
       int main() { return f(getchar()); }"
  in
  check_bool "side effects block coalescing" true
    (Reorder.Coalesce.coalescible fn seq ~max_span:512 = None)

let test_span_limit () =
  let _, fn, seq =
    seq_of
      "int f(int c) { if (c == 0) return 1; if (c == 1000) return 2; return \
       0; }\n\
       int main() { return f(getchar()); }"
  in
  check_bool "span over the limit" true
    (Reorder.Coalesce.coalescible fn seq ~max_span:512 = None);
  check_bool "span under a bigger limit" true
    (Reorder.Coalesce.coalescible fn seq ~max_span:2048 <> None)

let test_decision_flips_with_machine () =
  (* a long chain: cheap table on the IPC, too dear on the Ultra when the
     reordered estimate is low *)
  let ipc = Reorder.Coalesce.indirect_cost_per_execution Sim.Cycle_model.sparc_ipc in
  let ultra =
    Reorder.Coalesce.indirect_cost_per_execution Sim.Cycle_model.sparc_ultra1
  in
  check_bool "ultra indirect dearer" true (ultra > ipc);
  let plan =
    { Reorder.Coalesce.table_lo = 0; table_hi = 7; targets = Array.make 8 "x" }
  in
  (* reordered estimate of 10 instructions/execution over 100 executions *)
  check_bool "IPC coalesces" true
    (Reorder.Coalesce.decide ~machine:Sim.Cycle_model.sparc_ipc ~total:100
       ~reorder_cost:1000 plan);
  check_bool "Ultra keeps the branches" false
    (Reorder.Coalesce.decide ~machine:Sim.Cycle_model.sparc_ultra1 ~total:100
       ~reorder_cost:1000 plan)

let test_apply_semantics () =
  (* coalesce by hand and compare against the untouched program *)
  let src = chain_src 10 in
  let input = String.init 300 (fun i -> Char.chr (90 + (i mod 30))) in
  let prog, fn, seq = seq_of src in
  let plan = Option.get (Reorder.Coalesce.coalescible fn seq ~max_span:512) in
  Reorder.Coalesce.apply fn seq plan;
  ignore (Mopt.Cleanup.finalize prog);
  Mir.Validate.check prog;
  let coalesced = Sim.Machine.run prog ~input in
  let reference = run_src src ~input in
  check_output "outputs agree" reference coalesced.Sim.Machine.output;
  check_bool "indirect jumps executed" true
    (coalesced.Sim.Machine.counters.Sim.Counters.indirect_jumps > 0)

(* [f.x0] consumes the sequence's condition codes through a jump
   forwarder: [f.u] branches on them without a compare of its own *)
let cc_forwarder_src u_insns =
  Printf.sprintf
    "function f(r0):\n\
     f.c0:\n  cmp r0, 39\n  be -> f.x0 | f.c1\n\
     f.c1:\n  cmp r0, 40\n  be -> f.x1 | f.d\n\
     f.x0:\n  r5 = 7\n  jmp f.u\n\
     f.u:\n%s  bl -> f.a | f.b\n\
     f.a:\n  ret r5\n\
     f.b:\n  ret 1\n\
     f.x1:\n  ret 2\n\
     f.d:\n  ret 0\n\n\
     function main():\n\
     main.entry:\n  r1 = call getchar()\n  r2 = call f(r1)\n\
    \  call print_int(r2)\n  ret 0\n"
    u_insns

let test_cc_through_forwarder () =
  let seq_of_text text =
    let prog = Mir.Parse.program text in
    Mir.Validate.check prog;
    let fn = Mir.Program.find_func prog "f" in
    let seq =
      List.find
        (fun s -> String.equal s.Reorder.Detect.func_name "f")
        (Reorder.Detect.find_program prog)
    in
    (prog, fn, seq)
  in
  let prog, fn, seq = seq_of_text (cc_forwarder_src "") in
  check_bool "f.x0 needs the condition codes" true
    (Analysis.Cc_live.live_in (Analysis.Cc_live.analyze fn) "f.x0");
  check_output "reference output on input 39" "1"
    (Sim.Machine.run_reference prog ~input:"\039").Sim.Machine.output;
  check_bool "a target reading the codes through a jump blocks coalescing"
    true
    (Reorder.Coalesce.coalescible fn seq ~max_span:512 = None);
  (* the control: with its own compare [f.u] no longer reads them *)
  let _, fn, seq = seq_of_text (cc_forwarder_src "  cmp r0, 50\n") in
  check_bool "coalescible once the target sets its own codes" true
    (Reorder.Coalesce.coalescible fn seq ~max_span:512 <> None)

(* the certificate's side of the same case: coalesce [f] by hand, past
   [coalescible]'s refusal, and the coalesced certificate must reject
   the table because item target [f.x0] reads the codes through [f.u] *)
let test_certificate_cc_through_forwarder () =
  let coalesce_by_hand u_insns =
    let prog = Mir.Parse.program (cc_forwarder_src u_insns) in
    let before = Mir.Clone.program prog in
    let seq =
      List.find
        (fun s -> String.equal s.Reorder.Detect.func_name "f")
        (Reorder.Detect.find_program prog)
    in
    let plan =
      {
        Reorder.Coalesce.table_lo = 39;
        table_hi = 40;
        targets = [| "f.x0"; "f.x1" |];
      }
    in
    Reorder.Coalesce.apply (Mir.Program.find_func prog "f") seq plan;
    let report =
      {
        Reorder.Pass.seq_reports =
          [
            {
              Reorder.Pass.sr_seq = seq;
              sr_total = 1;
              sr_choice = None;
              sr_outcome = Reorder.Pass.Coalesced plan;
              sr_orig_branches = 2;
              sr_final_branches = 2;
            };
          ];
      }
    in
    (before, prog, Check.Verify.certify_report ~before ~after:prog report)
  in
  let before, after, summary = coalesce_by_hand "" in
  let out p = (Sim.Machine.run_reference p ~input:"\039").Sim.Machine.output in
  check_output "the original prints 1 on input 39" "1" (out before);
  check_output "the coalesced program prints 7" "7" (out after);
  check_bool "the certificate rejects the table" false
    (Check.Verify.ok summary);
  check_bool "and names the item target" true
    (List.exists
       (fun e ->
         contains_substring e "coalesced target f.x0 consumes condition codes")
       (Check.Verify.all_errors summary));
  (* the control: with its own compare [f.u] no longer reads them *)
  let _, _, summary = coalesce_by_hand "  cmp r0, 50\n" in
  check_bool "certified once the target sets its own codes" true
    (Check.Verify.ok summary)

let test_pipeline_coalescing_ipc () =
  (* under set III the chain stays a long linear search; with IPC-model
     coalescing enabled and a uniform profile the table should win *)
  let src = chain_src 16 in
  let input = String.init 400 (fun i -> Char.chr (100 + (i mod 16))) in
  let config =
    {
      Driver.Config.default with
      Driver.Config.heuristic = Mopt.Switch_lower.set_iii;
      coalesce_machine = Some Sim.Cycle_model.sparc_ipc;
    }
  in
  let r = reorder_pipeline ~config ~training_input:input ~test_input:input src in
  check_bool "some sequence coalesced" true
    (Reorder.Pass.coalesced_count r.Driver.Pipeline.r_report >= 1);
  check_bool "reordered version uses indirect jumps" true
    (r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_counters
       .Sim.Counters.indirect_jumps > 0)

let test_pipeline_coalescing_respects_skew () =
  (* with a profile where one value dominates, reordering (test the hot
     value first: ~2 insns/execution) beats any table even on the IPC *)
  let src = chain_src 16 in
  let skewed = String.make 400 (Char.chr 100) in
  let config =
    {
      Driver.Config.default with
      Driver.Config.heuristic = Mopt.Switch_lower.set_iii;
      coalesce_machine = Some Sim.Cycle_model.sparc_ipc;
    }
  in
  let r =
    reorder_pipeline ~config ~training_input:skewed ~test_input:skewed src
  in
  check_int "skewed profile keeps the branches" 0
    (Reorder.Pass.coalesced_count r.Driver.Pipeline.r_report);
  check_bool "and reorders instead" true
    (Reorder.Pass.reordered_count r.Driver.Pipeline.r_report >= 1)

let test_pipeline_coalescing_ultra () =
  (* same uniform profile, Ultra cost model: the table is 4x dearer, the
     reordered chain usually survives *)
  let src = chain_src 4 in
  let input = String.init 200 (fun i -> Char.chr (100 + (i mod 4))) in
  let config =
    {
      Driver.Config.default with
      Driver.Config.heuristic = Mopt.Switch_lower.set_iii;
      coalesce_machine = Some Sim.Cycle_model.sparc_ultra1;
    }
  in
  let r = reorder_pipeline ~config ~training_input:input ~test_input:input src in
  check_int "short chain not worth a table on the Ultra" 0
    (Reorder.Pass.coalesced_count r.Driver.Pipeline.r_report)

let test_workloads_with_coalescing () =
  (* semantic preservation across the suite with coalescing on *)
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let config =
        {
          Driver.Config.default with
          Driver.Config.heuristic = Mopt.Switch_lower.set_iii;
          coalesce_machine = Some Sim.Cycle_model.sparc_ipc;
        }
      in
      (* Pipeline.run raises on output mismatch *)
      ignore
        (Driver.Pipeline.run ~config ~name ~source:w.Workloads.Spec.source
           ~training_input:
             (String.sub (Lazy.force w.Workloads.Spec.training_input) 0 4000)
           ~test_input:
             (String.sub (Lazy.force w.Workloads.Spec.test_input) 0 4000)
           ()))
    [ "lex"; "cb"; "sed"; "yacc"; "wc" ]

let suite =
  [
    case "coalesce: dense chain plan" test_coalescible_dense_chain;
    case "coalesce: rays blocked" test_not_coalescible_rays;
    case "coalesce: side effects blocked" test_not_coalescible_side_effects;
    case "coalesce: span limit" test_span_limit;
    case "coalesce: machine flips the decision" test_decision_flips_with_machine;
    case "coalesce: apply preserves semantics" test_apply_semantics;
    case "coalesce: a target reading codes through a jump blocks it"
      test_cc_through_forwarder;
    case "coalesce: certificate rejects an item target reading codes"
      test_certificate_cc_through_forwarder;
    case "coalesce: pipeline coalesces uniform chains (IPC)"
      test_pipeline_coalescing_ipc;
    case "coalesce: skewed profiles keep reordering" test_pipeline_coalescing_respects_skew;
    case "coalesce: Ultra keeps short chains" test_pipeline_coalescing_ultra;
    slow_case "coalesce: workloads preserve output" test_workloads_with_coalescing;
  ]
