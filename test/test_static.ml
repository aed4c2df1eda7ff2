(* The static-prediction layer: golden heuristic probabilities on
   hand-built CFGs, the Dempster–Shafer combination rule, Wu–Larus
   frequency propagation properties, Analysis.Dom against the
   path-cutting reference (postdominators on random CFGs, dominators on
   fuzz specs and the repro corpus), and the static-profile pipeline's
   backend differential. *)

open Helpers

let feq = Alcotest.float 1e-9

(* --- Dempster–Shafer combination ----------------------------------- *)

let test_combine () =
  let c = Analysis.Heur.combine in
  Alcotest.check feq "0.5 is the left identity" 0.3 (c 0.5 0.3);
  Alcotest.check feq "0.5 is the right identity" 0.3 (c 0.3 0.5);
  Alcotest.check feq "symmetric" (c 0.88 0.2) (c 0.2 0.88);
  (* the worked example: 0.88 (+) 0.2 = .88*.2 / (.88*.2 + .12*.8) *)
  Alcotest.check feq "golden value" (0.176 /. (0.176 +. 0.096)) (c 0.88 0.2);
  Alcotest.check feq "certainty absorbs" 1.0 (c 1.0 0.3);
  Alcotest.check feq "agreement reinforces"
    (0.88 *. 0.88 /. ((0.88 *. 0.88) +. (0.12 *. 0.12)))
    (c 0.88 0.88)

(* --- golden heuristic probabilities -------------------------------- *)

(* a while loop: the header's branch keeps the loop on the taken edge,
   leaves it on the fall edge *)
let while_loop () =
  Mir.Parse.func
    {|function f(r0):
f.entry:
  r1 = 0
  jmp f.head
f.head:
  cmp r1, 10
  bl -> f.body | f.exit
f.body:
  r1 = add r1, 1
  jmp f.head
f.exit:
  ret 0
|}

let ev_names heur label =
  List.map
    (fun e -> e.Analysis.Heur.ev_heur)
    (Analysis.Heur.evidence heur label)

let test_loop_exit () =
  let fn = while_loop () in
  let heur = Analysis.Heur.analyze fn in
  Alcotest.(check (list string))
    "only the loop-exit heuristic applies" [ "loop-exit" ]
    (ev_names heur "f.head");
  (* the fall edge leaves the loop: P(taken) = 1 - p_loop_exit *)
  Alcotest.check feq "stay probability" 0.8
    (Analysis.Heur.taken_prob heur "f.head")

let test_loop_branch () =
  let fn =
    Mir.Parse.func
      {|function f(r0):
f.entry:
  r1 = 0
  jmp f.body
f.body:
  r1 = add r1, 1
  cmp r1, 10
  bl -> f.body | f.exit
f.exit:
  ret 0
|}
  in
  let heur = Analysis.Heur.analyze fn in
  Alcotest.(check (list string))
    "a back edge is the strongest signal" [ "loop-branch" ]
    (ev_names heur "f.body");
  Alcotest.check feq "back-edge probability" 0.88
    (Analysis.Heur.taken_prob heur "f.body")

let test_opcode_eq () =
  let fn =
    Mir.Parse.func
      {|function f(r0):
f.entry:
  cmp r0, 42
  be -> f.yes | f.no
f.yes:
  ret 1
f.no:
  r1 = add r0, 1
  ret r1
|}
  in
  let heur = Analysis.Heur.analyze fn in
  (* both successors return, so the return heuristic abstains; only the
     equality-fails opcode prediction is left *)
  Alcotest.(check (list string))
    "opcode evidence alone" [ "opcode" ]
    (ev_names heur "f.entry");
  Alcotest.check feq "equality predicted to fail" 0.16
    (Analysis.Heur.taken_prob heur "f.entry")

let test_evidence_fusion () =
  let fn =
    Mir.Parse.func
      {|function f(r0):
f.entry:
  cmp r0, 0
  be -> f.call | f.plain
f.call:
  r1 = call getchar()
  jmp f.join
f.plain:
  r1 = add r0, 1
  jmp f.join
f.join:
  ret r1
|}
  in
  let heur = Analysis.Heur.analyze fn in
  Alcotest.(check (list string))
    "opcode and call both apply" [ "opcode"; "call" ]
    (ev_names heur "f.entry");
  Alcotest.check feq "fused by Dempster-Shafer"
    (Analysis.Heur.combine 0.16 0.22)
    (Analysis.Heur.taken_prob heur "f.entry")

let test_no_evidence () =
  let fn =
    Mir.Parse.func
      {|function f(r0, r1):
f.entry:
  cmp r0, r1
  bg -> f.a | f.b
f.a:
  ret 0
f.b:
  ret 1
|}
  in
  let heur = Analysis.Heur.analyze fn in
  Alcotest.(check (list string)) "undecidable branch" [] (ev_names heur "f.entry");
  Alcotest.check feq "coin flip" 0.5 (Analysis.Heur.taken_prob heur "f.entry")

(* --- frequency propagation golden values --------------------------- *)

let test_freq_while_loop () =
  let fn = while_loop () in
  let freq = Analysis.Freq.analyze fn in
  (* stay probability 0.8 -> cyclic 0.8 -> multiplier 1/(1-0.8) = 5 *)
  Alcotest.check feq "entry once" 1. (Analysis.Freq.block_freq freq "f.entry");
  Alcotest.check feq "header five times" 5.
    (Analysis.Freq.block_freq freq "f.head");
  Alcotest.check feq "body four times" 4.
    (Analysis.Freq.block_freq freq "f.body");
  Alcotest.check feq "exit once" 1. (Analysis.Freq.block_freq freq "f.exit");
  Alcotest.check feq "loop edge" 4.
    (Analysis.Freq.edge_freq freq ~src:"f.head" ~dst:"f.body");
  match Analysis.Freq.succ_probs freq "f.head" with
  | [ (a, pa); (b, pb) ] ->
    Alcotest.check feq "P(head->body)" 0.8
      (if String.equal a "f.body" then pa else pb);
    Alcotest.check feq "P(head->exit)" 0.2
      (if String.equal a "f.exit" then pa else (if String.equal b "f.exit" then pb else nan))
  | probs ->
    Alcotest.failf "expected two successors, got %d" (List.length probs)

let test_freq_loop_cap () =
  let fn =
    Mir.Parse.func
      {|function f(r0):
f.entry:
  jmp f.spin
f.spin:
  call putchar(42)
  jmp f.spin
|}
  in
  let freq = Analysis.Freq.analyze fn in
  (* cyclic probability 1 saturates at the cap instead of diverging *)
  Alcotest.check feq "capped multiplier" Analysis.Freq.loop_cap
    (Analysis.Freq.block_freq freq "f.spin")

(* --- frequency propagation properties ------------------------------ *)

(* all of [Freq]'s documented guarantees on one function *)
let freq_invariants fn =
  let loops = Analysis.Loops.analyze fn in
  let freq = Analysis.Freq.analyze ~loops fn in
  let preds = Mir.Func.predecessors fn in
  let entry = (Mir.Func.entry fn).Mir.Block.label in
  List.for_all
    (fun (b : Mir.Block.t) ->
      let label = b.Mir.Block.label in
      let f = Analysis.Freq.block_freq freq label in
      let finite = Float.is_finite f && f >= 0. in
      let probs = Analysis.Freq.succ_probs freq label in
      let dist_ok =
        probs = []
        || abs_float (List.fold_left (fun s (_, p) -> s +. p) 0. probs -. 1.)
           < 1e-9
      in
      (* flow conservation: away from loop headers (whose re-entry mass
         the multiplier already folds in) and the entry (source of the
         unit mass), a reached block's frequency is its edge inflow *)
      let conserved =
        (not (Analysis.Freq.reached freq label))
        || String.equal label entry
        || Analysis.Loops.is_header loops label
        ||
        let inflow =
          List.fold_left
            (fun s p -> s +. Analysis.Freq.edge_freq freq ~src:p ~dst:label)
            0.
            (Option.value ~default:[] (Hashtbl.find_opt preds label))
        in
        abs_float (inflow -. f) <= 1e-6 *. Float.max 1. f
      in
      finite && dist_ok && conserved)
    fn.Mir.Func.blocks

let prop_freq_specs =
  qcheck2 ~count:60 ~print:Check.Gen.show_spec "freq invariants on fuzz specs"
    Check.Gen.gen_spec
    (fun spec ->
      let p = Check.Gen.to_program spec in
      List.for_all freq_invariants p.Mir.Program.funcs)

let prop_freq_cfgs =
  qcheck2 ~count:120 ~print:Check.Gen.print_cfg
    "freq invariants on random CFGs (incl. irreducible)" Check.Gen.gen_cfg
    (fun cfg -> freq_invariants (Check.Gen.build_cfg cfg))

(* --- Analysis.Dom against the path-cutting reference ---------------- *)

(* postdominance by path cutting: a postdominates b iff every path from
   b to a [Ret] passes through a.  Postdominators are defined on the
   blocks reachable from the entry that can reach an exit *)
let postdom_matches_reference fn =
  let post = Analysis.Dom.compute_post fn in
  let reach = Mir.Func.reachable fn in
  let exits_avoiding a b =
    let seen = Hashtbl.create 16 in
    let rec go l =
      (not (String.equal l a))
      && (not (Hashtbl.mem seen l))
      && begin
           Hashtbl.replace seen l ();
           match Mir.Func.find_block_opt fn l with
           | Some blk -> (
             match blk.Mir.Block.term.Mir.Block.kind with
             | Mir.Block.Ret _ -> true
             | _ -> List.exists go (Mir.Func.successors fn blk))
           | None -> false
         end
    in
    go b
  in
  let labels =
    List.filter_map
      (fun (b : Mir.Block.t) ->
        if Hashtbl.mem reach b.Mir.Block.label then Some b.Mir.Block.label
        else None)
      fn.Mir.Func.blocks
  in
  let analyzed =
    List.filter (exits_avoiding Analysis.Dom.virtual_exit) labels
  in
  List.for_all
    (fun b ->
      Analysis.Dom.known post b = List.mem b analyzed)
    labels
  && List.for_all
       (fun b ->
         Analysis.Dom.dominates post Analysis.Dom.virtual_exit b
         && List.for_all
              (fun a ->
                Analysis.Dom.dominates post a b
                = (String.equal a b || not (exits_avoiding a b)))
              analyzed)
       analyzed

let prop_postdom_cfgs =
  qcheck2 ~count:200 ~print:Check.Gen.print_cfg
    "postdominators match the path-cutting reference on random CFGs"
    Check.Gen.gen_cfg
    (fun cfg -> postdom_matches_reference (Check.Gen.build_cfg cfg))

(* Check.Verify certifies rewrites and LICM finds loops with
   [Analysis.Dom]; beyond the random CFGs of the property suite, it must
   match the reference on the fuzz generator's programs and on every
   committed repro *)
let test_dom_fuzz_corpus () =
  List.iter
    (fun spec ->
      let p = Check.Gen.to_program spec in
      List.iter
        (fun fn ->
          Alcotest.(check bool)
            (Printf.sprintf "dominators match the reference on %s"
               fn.Mir.Func.name)
            true (dom_matches_reference fn))
        p.Mir.Program.funcs)
    (Check.Gen.sample ~seed:7 ~n:25 Check.Gen.gen_spec)

let test_dom_repro_corpus () =
  match Bench_db.Corpus.load_dir "../corpus" with
  | Error e -> Alcotest.fail e
  | Ok repros ->
    Alcotest.(check bool) "corpus is seeded" true (List.length repros >= 2);
    List.iter
      (fun (r : Bench_db.Corpus.repro) ->
        List.iter
          (fun fn ->
            Alcotest.(check bool)
              (Printf.sprintf "dominators match the reference on %s/%s"
                 r.Bench_db.Corpus.rp_name fn.Mir.Func.name)
              true (dom_matches_reference fn))
          r.Bench_db.Corpus.rp_program.Mir.Program.funcs)
      repros

let test_postdom () =
  let fn = while_loop () in
  let post = Analysis.Dom.compute_post fn in
  let exit = Analysis.Dom.virtual_exit in
  List.iter
    (fun label ->
      Alcotest.(check bool)
        (Printf.sprintf "virtual exit postdominates %s" label)
        true
        (Analysis.Dom.dominates post exit label))
    [ "f.entry"; "f.head"; "f.body"; "f.exit" ];
  Alcotest.(check bool) "exit postdominates the header" true
    (Analysis.Dom.dominates post "f.exit" "f.head");
  Alcotest.(check bool) "the body does not postdominate the header" false
    (Analysis.Dom.dominates post "f.body" "f.head")

(* --- static profile counts ----------------------------------------- *)

(* of_static fills every registered sequence with a positive budget and
   row counts matching its executions *)
let test_of_static_counts () =
  let spec = Check.Gen.spec_of_seed 11 in
  let p = Check.Gen.to_program spec in
  Mopt.Switch_lower.lower_program (Check.Gen.heuristic_of_spec spec) p;
  Mopt.Cleanup.run p;
  ignore (Mopt.Cleanup.finalize p);
  let seqs = Reorder.Detect.find_program ~facts:true p in
  Alcotest.(check bool) "spec has sequences" true (seqs <> []);
  let table = Reorder.Profiles.of_static p seqs in
  List.iter
    (fun (seq : Reorder.Detect.t) ->
      let view = Reorder.Profiles.counts table seq in
      Alcotest.(check bool)
        (Printf.sprintf "seq %d predicted alive" seq.Reorder.Detect.seq_id)
        true (view.Reorder.Profiles.total > 0);
      let sum =
        Array.fold_left ( + ) 0 view.Reorder.Profiles.item_counts
        + List.fold_left
            (fun s (_, c) -> s + c)
            0 view.Reorder.Profiles.default_counts
      in
      Alcotest.(check int) "rows sum to the execution budget"
        view.Reorder.Profiles.total sum)
    seqs

(* --- static-profile pipeline: backend differential ----------------- *)

(* the fuzz-case stages under --profile=static: reorder on predicted
   counts, certify, and demand byte-identical observables across every
   execution backend *)
let prop_static_differential =
  qcheck2 ~count:25 ~print:Check.Gen.show_spec
    "static-profile reordering: backends agree" Check.Gen.gen_spec
    (fun spec ->
      let p = Check.Gen.to_program spec in
      let out =
        Check.Fuzz.run_program ~profile:`Static
          ~heuristic:(Check.Gen.heuristic_of_spec spec)
          ~train:spec.Check.Gen.sp_train ~test:spec.Check.Gen.sp_test p
      in
      out.Check.Fuzz.co_errors = [])

let test_static_workload name =
  let w = Workloads.Registry.find name in
  let p = Minic.Lower.compile w.Workloads.Spec.source in
  let out =
    Check.Fuzz.run_program ~backends:(Check.Fuzz.all_backends ())
      ~profile:`Static ~heuristic:Mopt.Switch_lower.set_i ~train:""
      ~test:(Lazy.force w.Workloads.Spec.test_input)
      p
  in
  Alcotest.(check (list string))
    "four-backend observables byte-identical" [] out.Check.Fuzz.co_errors;
  Alcotest.(check bool) "the static profile drove reorderings" true
    (out.Check.Fuzz.co_reordered > 0)

let suite =
  [
    case "heur: Dempster-Shafer combination" test_combine;
    case "heur: loop-exit golden" test_loop_exit;
    case "heur: loop-branch golden" test_loop_branch;
    case "heur: opcode-equality golden" test_opcode_eq;
    case "heur: evidence fusion golden" test_evidence_fusion;
    case "heur: undecidable branch is a coin flip" test_no_evidence;
    case "freq: while-loop golden frequencies" test_freq_while_loop;
    case "freq: cyclic probability saturates at the cap" test_freq_loop_cap;
    prop_freq_specs;
    prop_freq_cfgs;
    prop_postdom_cfgs;
    case "dom: differential on fuzz specs" test_dom_fuzz_corpus;
    case "dom: differential on the repro corpus" test_dom_repro_corpus;
    case "dom: postdominators of a while loop" test_postdom;
    case "profiles: of_static fills every sequence" test_of_static_counts;
    prop_static_differential;
    slow_case "pipeline: wc under --profile=static (all backends)" (fun () ->
        test_static_workload "wc");
    slow_case "pipeline: grep under --profile=static (all backends)" (fun () ->
        test_static_workload "grep");
  ]
