(* The lib/analysis subsystem: the generic engine, the interval and
   exact-set domains, the derived analyses (intervals, cc liveness,
   purity), their consumers (lint, Explain, dot annotations), and the
   analysis-strengthened detector end to end on the awk fixture. *)

open Helpers
module Iv = Analysis.Iv
module Iset = Analysis.Iset

let r n = Mir.Reg.of_int n
let reg n = Mir.Operand.Reg (r n)
let imm n = Mir.Operand.Imm n

let fn_of blocks =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  List.iter
    (fun (label, insns, term) ->
      Mir.Func.add_block fn (Mir.Block.make ~label insns term))
    blocks;
  fn

let block fn label =
  match Mir.Func.find_block_opt fn label with
  | Some b -> b
  | None -> Alcotest.failf "no block %s" label

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_forward_reachability () =
  (* boolean forward reachability: the island block keeps bottom *)
  let fn =
    fn_of
      [
        ("entry", [], Mir.Block.Jmp "mid");
        ("mid", [], Mir.Block.Ret None);
        ("island", [], Mir.Block.Ret None);
      ]
  in
  let problem =
    {
      Mir.Dataflow.direction = Mir.Dataflow.Forward;
      boundary = true;
      bottom = false;
      join = ( || );
      equal = Bool.equal;
      transfer = (fun _ f -> f);
      edge = None;
      widen = None;
      widen_after = 8;
    }
  in
  let res = Mir.Dataflow.solve problem fn in
  check_bool "entry reached" true (Mir.Dataflow.fact_in res "entry");
  check_bool "mid reached" true (Mir.Dataflow.fact_in res "mid");
  check_bool "island keeps bottom" false (Mir.Dataflow.fact_in res "island");
  check_bool "iterations counted" true (Mir.Dataflow.iterations res > 0)

(* ------------------------------------------------------------------ *)
(* Domains                                                             *)
(* ------------------------------------------------------------------ *)

let test_iv_ops () =
  check_bool "meet disjoint is bot" true
    (Iv.is_bot (Iv.meet (Iv.make 0 4) (Iv.make 6 9)));
  check_bool "join hull" true
    (Iv.equal (Iv.join (Iv.make 0 2) (Iv.make 8 9)) (Iv.make 0 9));
  check_bool "add" true
    (Iv.equal (Iv.add (Iv.make 1 2) (Iv.make 10 20)) (Iv.make 11 22));
  check_bool "const recognised" true (Iv.is_const (Iv.const 7) = Some 7);
  check_bool "of_cond lt" true
    (Iv.equal (Iv.of_cond Mir.Cond.Lt 5) (Iv.make min_int 4));
  check_bool "of_cond ne degrades to top" true
    (Iv.equal (Iv.of_cond Mir.Cond.Ne 5) Iv.top);
  check_bool "always" true
    (Iv.always Mir.Cond.Lt (Iv.make 0 4) (Iv.make 5 9));
  check_bool "never" true (Iv.never Mir.Cond.Eq (Iv.make 0 4) (Iv.const 9));
  (* widening jumps a moving bound to the infinity *)
  let w = Iv.widen (Iv.make 0 4) (Iv.make 0 5) in
  check_bool "widen moving hi" true (Iv.mem max_int w && Iv.mem 0 w)

let test_iset_exact_ne () =
  let ne = Iset.of_cond Mir.Cond.Ne 5 in
  check_bool "punctured line is exact" true
    (Iset.equal ne
       (Iset.union (Iset.of_interval min_int 4) (Iset.of_interval 6 max_int)));
  check_bool "5 not a member" false (Iset.mem 5 ne);
  check_bool "difference" true
    (Iset.equal
       (Iset.diff (Iset.of_interval 0 9) (Iset.of_interval 3 5))
       (Iset.union (Iset.of_interval 0 2) (Iset.of_interval 6 9)));
  check_bool "as_interval on union" true
    (Iset.as_interval ne = None);
  check_bool "subset" true (Iset.subset (Iset.single 7) ne)

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)
(* ------------------------------------------------------------------ *)

let test_intervals_branch_refinement () =
  let fn =
    fn_of
      [
        ( "entry",
          [ Mir.Insn.Cmp (reg 0, imm 10) ],
          Mir.Block.Br (Mir.Cond.Lt, "low", "high") );
        ("low", [], Mir.Block.Ret None);
        ("high", [], Mir.Block.Ret None);
      ]
  in
  let t = Analysis.Intervals.analyze fn in
  check_bool "taken edge refined" true
    (Iv.equal (Analysis.Intervals.reg_in t "low" (r 0)) (Iv.make min_int 9));
  check_bool "fall-through edge refined" true
    (Iv.equal (Analysis.Intervals.reg_in t "high" (r 0))
       (Iv.make 10 max_int));
  check_bool "param unknown at entry" true
    (Iv.equal (Analysis.Intervals.reg_in t "entry" (r 0)) Iv.top)

let test_intervals_unreachable_and_fate () =
  let fn =
    fn_of
      [
        ( "entry",
          [ Mir.Insn.Mov (r 1, imm 5); Mir.Insn.Cmp (reg 1, imm 10) ],
          Mir.Block.Br (Mir.Cond.Gt, "dead", "live") );
        ("dead", [], Mir.Block.Ret None);
        ("live", [], Mir.Block.Ret None);
      ]
  in
  let t = Analysis.Intervals.analyze fn in
  check_bool "5 > 10 never taken" true
    (Analysis.Intervals.branch_fate t (block fn "entry") = `Never_taken);
  check_bool "dead arm unreachable" false
    (Analysis.Intervals.reachable t "dead");
  check_bool "live arm reachable" true (Analysis.Intervals.reachable t "live")

let test_intervals_call_kills_cc () =
  let fn =
    fn_of
      [
        ( "entry",
          [
            Mir.Insn.Cmp (reg 0, imm 10);
            Mir.Insn.Call (None, "put_char", [ imm 65 ]);
          ],
          Mir.Block.Br (Mir.Cond.Lt, "a", "b") );
        ("a", [], Mir.Block.Ret None);
        ("b", [], Mir.Block.Ret None);
      ]
  in
  let t = Analysis.Intervals.analyze fn in
  check_bool "cc unknown after call" true
    (Analysis.Intervals.cc_at_term t (block fn "entry") = None);
  check_bool "fate undecided" true
    (Analysis.Intervals.branch_fate t (block fn "entry") = `Unknown)

let test_intervals_widening_terminates () =
  (* i = 0; while (i < 1000000) i++ — converges by widening, and the
     exit edge still carries the refined lower bound *)
  let fn =
    fn_of
      [
        ("entry", [ Mir.Insn.Mov (r 1, imm 0) ], Mir.Block.Jmp "head");
        ( "head",
          [ Mir.Insn.Cmp (reg 1, imm 1_000_000) ],
          Mir.Block.Br (Mir.Cond.Ge, "exit", "body") );
        ( "body",
          [ Mir.Insn.Binop (Mir.Insn.Add, r 1, reg 1, imm 1) ],
          Mir.Block.Jmp "head" );
        ("exit", [], Mir.Block.Ret (Some (reg 1)));
      ]
  in
  let t = Analysis.Intervals.analyze fn in
  check_bool "terminated quickly" true (Analysis.Intervals.iterations t < 100);
  check_bool "exit lower bound proved" true
    (Iv.subset
       (Analysis.Intervals.reg_in t "exit" (r 1))
       (Iv.make 1_000_000 max_int));
  check_bool "body upper bound proved" true
    (Iv.subset
       (Analysis.Intervals.reg_in t "body" (r 1))
       (Iv.make min_int 999_999))

(* ------------------------------------------------------------------ *)
(* Cc liveness / purity                                                *)
(* ------------------------------------------------------------------ *)

let test_cc_live_through_forwarder () =
  let fn =
    fn_of
      [
        ("entry", [ Mir.Insn.Cmp (reg 0, imm 3) ], Mir.Block.Jmp "fwd");
        ("fwd", [], Mir.Block.Jmp "use");
        ("use", [], Mir.Block.Br (Mir.Cond.Eq, "a", "b"));
        ("a", [], Mir.Block.Ret None);
        ("b", [], Mir.Block.Ret None);
      ]
  in
  let t = Analysis.Cc_live.analyze fn in
  check_bool "live through the forwarder" true
    (Analysis.Cc_live.live_in t "fwd");
  check_bool "live into the consumer" true (Analysis.Cc_live.live_in t "use");
  check_bool "live out of the compare block" true
    (Analysis.Cc_live.live_out t "entry");
  check_bool "dead past the branch" false (Analysis.Cc_live.live_in t "a")

let test_cc_live_call_clobbers () =
  let fn =
    fn_of
      [
        ("entry", [ Mir.Insn.Cmp (reg 0, imm 3) ], Mir.Block.Jmp "mid");
        ( "mid",
          [ Mir.Insn.Call (None, "put_char", [ imm 65 ]) ],
          Mir.Block.Jmp "use" );
        ("use", [], Mir.Block.Br (Mir.Cond.Eq, "a", "b"));
        ("a", [], Mir.Block.Ret None);
        ("b", [], Mir.Block.Ret None);
      ]
  in
  let t = Analysis.Cc_live.analyze fn in
  check_bool "consumer still needs cc" true (Analysis.Cc_live.live_in t "use");
  check_bool "call blocks the entry codes" false
    (Analysis.Cc_live.live_in t "mid")

let test_purity_interval_refutes_trap () =
  let fn =
    fn_of
      [
        ( "entry",
          [
            Mir.Insn.Mov (r 2, imm 5);
            Mir.Insn.Binop (Mir.Insn.Div, r 3, reg 0, reg 2);
          ],
          Mir.Block.Ret (Some (reg 3)) );
      ]
  in
  let b = block fn "entry" in
  check_bool "register divisor may trap without facts" false
    (Analysis.Purity.pure b);
  check_bool "interval facts refute the trap" true
    (Analysis.Purity.pure ~intervals:(Analysis.Intervals.analyze fn) b);
  let store =
    Mir.Block.make ~label:"s"
      [ Mir.Insn.Store ("g", imm 0, imm 1) ]
      (Mir.Block.Ret None)
  in
  check_bool "store is an effect" true
    (List.exists
       (function Analysis.Purity.Store "g" -> true | _ -> false)
       (Analysis.Purity.effects store))

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint fn = Analysis.Lint.check_func fn (Analysis.Intervals.analyze fn)

let test_lint_unreachable_and_decided () =
  (* the trailing Mov keeps the block out of the arm-chain walk (the
     compare is not last), so the generic branch_fate check fires *)
  let fn =
    fn_of
      [
        ( "entry",
          [
            Mir.Insn.Mov (r 1, imm 5);
            Mir.Insn.Cmp (reg 1, imm 10);
            Mir.Insn.Mov (r 2, imm 0);
          ],
          Mir.Block.Br (Mir.Cond.Gt, "dead", "live") );
        ("dead", [], Mir.Block.Ret None);
        ("live", [], Mir.Block.Ret None);
      ]
  in
  let diags = lint fn in
  let has kind label =
    List.exists
      (fun (d : Analysis.Lint.diag) ->
        d.Analysis.Lint.kind = kind && d.Analysis.Lint.label = label)
      diags
  in
  check_bool "branch decided" true
    (has Analysis.Lint.Branch_never_taken "entry");
  check_bool "dead arm reported" true
    (has Analysis.Lint.Unreachable_block "dead");
  let json = Analysis.Lint.to_json diags in
  check_bool "json carries the kinds" true
    (contains_substring json "branch-never-taken"
    && contains_substring json "unreachable-block"
    && contains_substring json "\"func\"");
  (* a decided arm inside a chain is the arm walk's responsibility *)
  let armed =
    fn_of
      [
        ( "entry",
          [ Mir.Insn.Mov (r 1, imm 5); Mir.Insn.Cmp (reg 1, imm 10) ],
          Mir.Block.Br (Mir.Cond.Gt, "dead", "live") );
        ("dead", [], Mir.Block.Ret None);
        ("live", [], Mir.Block.Ret None);
      ]
  in
  check_bool "arm-shaped block reported as subsumed" true
    (List.exists
       (fun (d : Analysis.Lint.diag) ->
         d.Analysis.Lint.kind = Analysis.Lint.Subsumed_arm)
       (lint armed))

let test_lint_subsumed_arm () =
  let fn =
    fn_of
      [
        ( "b1",
          [ Mir.Insn.Cmp (reg 0, imm 5) ],
          Mir.Block.Br (Mir.Cond.Eq, "x", "b2") );
        ( "b2",
          [ Mir.Insn.Cmp (reg 0, imm 5) ],
          Mir.Block.Br (Mir.Cond.Eq, "y", "rest") );
        ("x", [], Mir.Block.Ret None);
        ("y", [], Mir.Block.Ret None);
        ("rest", [], Mir.Block.Ret None);
      ]
  in
  check_bool "second test of the same value is subsumed" true
    (List.exists
       (fun (d : Analysis.Lint.diag) ->
         d.Analysis.Lint.kind = Analysis.Lint.Subsumed_arm
         && d.Analysis.Lint.label = "b2")
       (lint fn))

let test_lint_clean_program () =
  let prog = compile "int main() { return getchar(); }" in
  Alcotest.(check int)
    "no diagnostics" 0
    (List.length (Analysis.Lint.check_program prog))

let test_explain_names_the_blocker () =
  let fn =
    fn_of
      [
        ( "entry",
          [ Mir.Insn.Cmp (reg 0, imm 5) ],
          Mir.Block.Br (Mir.Cond.Eq, "yes", "no") );
        ("yes", [], Mir.Block.Ret (Some (imm 1)));
        ("no", [], Mir.Block.Ret (Some (imm 0)));
      ]
  in
  match Reorder.Explain.explain_func fn with
  | [ d ] ->
    check_bool "kind" true (d.Analysis.Lint.kind = Analysis.Lint.Not_reorderable);
    check_bool "names the returning continuation" true
      (contains_substring d.Analysis.Lint.message "returns")
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* Dot annotations                                                     *)
(* ------------------------------------------------------------------ *)

let test_dot_annotation_hook () =
  let fn = fn_of [ ("entry", [], Mir.Block.Ret None) ] in
  let s =
    Mir.Dot.func_to_string
      ~annot:(fun b ->
        if b.Mir.Block.label = "entry" then Some "r0:[0,9]" else None)
      fn
  in
  check_bool "annotation rendered" true (contains_substring s "r0:[0,9]");
  check_bool "no hook, no annotation" false
    (contains_substring (Mir.Dot.func_to_string fn) "r0:[0,9]")

(* Facts are arrays over a per-function register index sized by the
   registers used, not by the largest id: renaming one register of every
   workload function to a sparse huge id changes no fact. *)
let test_intervals_renaming_invariant () =
  let into = r 50_000_000 in
  List.iter
    (fun (prog : Mir.Program.t) ->
      List.iter
        (fun (fn : Mir.Func.t) ->
          match regs_of fn with
          | [] -> ()
          | from :: _ ->
            let renamed = rename_reg ~from ~into fn in
            let as_renamed =
              List.map
                (fun (name, x) ->
                  (name, if Mir.Reg.equal x from then into else x))
                (own_regs fn)
            in
            check_output
              (Printf.sprintf "%s with %s as %s" fn.Mir.Func.name
                 (Mir.Reg.show from) (Mir.Reg.show into))
              (interval_facts ~regs:(own_regs fn) fn)
              (interval_facts ~regs:as_renamed renamed))
        prog.Mir.Program.funcs)
    (workload_bases ())

(* An analysis keeps its register index in its own result, never in a
   global or domain-local table: the corpus analysed on two domains
   gives the sequential facts and rewrites. *)
let test_analyses_domain_safe () =
  let bases = workload_bases () in
  let analyse prog =
    let prog = Mir.Clone.program prog in
    String.concat ""
      (List.map
         (fun fn ->
           let facts = interval_facts ~regs:(own_regs fn) fn in
           let changed = Mopt.Global_const.run_func fn in
           Format.asprintf "%s%b@
%a" facts changed Mir.Func.pp fn)
         prog.Mir.Program.funcs)
  in
  let sequential = List.map analyse bases in
  let parallel = Driver.Pool.map ~domains:2 analyse bases in
  List.iter2
    (fun (w : Workloads.Spec.t) (s, p) ->
      check_bool (w.Workloads.Spec.name ^ ": 2 domains = sequential") true
        (String.equal s p))
    Workloads.Registry.all
    (List.combine sequential parallel)

(* The solver's work is part of its contract: the seed and requeue
   order fix how many blocks liveness and intervals recompute on every
   function of the 51 bases (17 programs x 3 heuristic sets), pinned by
   a golden. *)
let test_iterations_golden () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun (hs : Mopt.Switch_lower.heuristic_set) ->
      List.iter2
        (fun (w : Workloads.Spec.t) (prog : Mir.Program.t) ->
          List.iter
            (fun (fn : Mir.Func.t) ->
              Printf.bprintf buf "%s %s %s live=%d iv=%d\n"
                w.Workloads.Spec.name hs.Mopt.Switch_lower.hs_name
                fn.Mir.Func.name
                (Mir.Dataflow.iterations (Mir.Liveness.compute fn))
                (Analysis.Intervals.iterations (Analysis.Intervals.analyze fn)))
            prog.Mir.Program.funcs)
        Workloads.Registry.all
        (workload_bases ~heuristic:hs ()))
    Mopt.Switch_lower.all_sets;
  check_golden "dataflow-iterations.txt" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Analysis-strengthened detection on the awk fixture                  *)
(* ------------------------------------------------------------------ *)

let test_awk_facts_admit_strictly_more () =
  (* awk keeps FS/RS in registers, as real awk does; only the facts walk
     can use those compares.  The admitted sequences must survive the
     full train/reorder/certify pipeline with both in-process backends
     byte-identical. *)
  let w = Workloads.Registry.find "awk" in
  let base = compile w.Workloads.Spec.source in
  let syntactic = Reorder.Detect.find_program ~facts:false base in
  let facts = Reorder.Detect.find_program ~facts:true base in
  check_bool "facts admit strictly more sequences" true
    (List.length facts > List.length syntactic);
  let tests seqs =
    List.fold_left (fun a s -> a + Reorder.Detect.items_count s) 0 seqs
  in
  check_bool "and strictly more range tests" true
    (tests facts > tests syntactic);
  let train = String.sub (Lazy.force w.Workloads.Spec.training_input) 0 8000 in
  let input = String.sub (Lazy.force w.Workloads.Spec.test_input) 0 8000 in
  let train_prog = Mir.Clone.program base in
  let table = Reorder.Profiles.instrument train_prog facts in
  let (_ : Sim.Machine.result) =
    Sim.Machine.run ~profile:table train_prog ~input:train
  in
  let reord = Mir.Clone.program base in
  let report = Reorder.Pass.run reord facts table in
  check_bool "something was reordered" true
    (Reorder.Pass.reordered_count report > List.length syntactic);
  let summary = Check.Verify.certify_report ~before:base ~after:reord report in
  check_bool
    (String.concat "; " (Check.Verify.all_errors summary))
    true
    (Check.Verify.ok summary);
  ignore (Mopt.Cleanup.finalize base);
  ignore (Mopt.Cleanup.finalize reord);
  Mir.Validate.check base;
  Mir.Validate.check reord;
  let outputs =
    List.concat_map
      (fun prog ->
        List.map
          (fun backend ->
            (Sim.Machine.run ~backend prog ~input).Sim.Machine.output)
          [ `Reference; `Compiled ])
      [ base; reord ]
  in
  match outputs with
  | first :: rest ->
    List.iteri
      (fun i o -> check_output (Printf.sprintf "output %d" (i + 1)) first o)
      rest
  | [] -> assert false

let suite =
  [
    case "engine: forward bool reachability" test_engine_forward_reachability;
    case "iv: lattice and arithmetic" test_iv_ops;
    case "iset: exact punctured sets" test_iset_exact_ne;
    case "intervals: branch-edge refinement" test_intervals_branch_refinement;
    case "intervals: infeasible edge, decided branch"
      test_intervals_unreachable_and_fate;
    case "intervals: call kills the condition codes"
      test_intervals_call_kills_cc;
    case "intervals: widening terminates, bounds survive"
      test_intervals_widening_terminates;
    case "cc-live: jmp forwarder" test_cc_live_through_forwarder;
    case "cc-live: call clobbers" test_cc_live_call_clobbers;
    case "purity: facts refute a division trap"
      test_purity_interval_refutes_trap;
    case "lint: unreachable arm and decided branch, json"
      test_lint_unreachable_and_decided;
    case "lint: subsumed arm" test_lint_subsumed_arm;
    case "lint: clean program is clean" test_lint_clean_program;
    case "explain: lone test names its blocker" test_explain_names_the_blocker;
    case "dot: annotation hook" test_dot_annotation_hook;
    case "intervals: renaming a register to r50000000 changes no fact"
      test_intervals_renaming_invariant;
    case "intervals and global const: 2 domains = sequential"
      test_analyses_domain_safe;
    case "liveness and intervals: iterations match golden"
      test_iterations_golden;
    slow_case "awk: facts admit strictly more, certified, byte-identical"
      test_awk_facts_admit_strictly_more;
  ]
