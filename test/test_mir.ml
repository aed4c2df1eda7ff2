(* Unit tests for the machine IR substrate. *)

open Helpers

let all_conds = [ Mir.Cond.Eq; Ne; Lt; Le; Gt; Ge ]

(* ------------------------------------------------------------------ *)
(* Cond                                                                *)
(* ------------------------------------------------------------------ *)

let test_cond_negate_involution () =
  List.iter
    (fun c ->
      check_bool "negate twice" true
        (Mir.Cond.equal c (Mir.Cond.negate (Mir.Cond.negate c))))
    all_conds

let test_cond_negate_semantics () =
  List.iter
    (fun c ->
      List.iter
        (fun (a, b) ->
          check_bool
            (Printf.sprintf "%s %d %d" (Mir.Cond.show c) a b)
            (not (Mir.Cond.eval c a b))
            (Mir.Cond.eval (Mir.Cond.negate c) a b))
        [ (0, 0); (1, 2); (2, 1); (-5, 3); (7, 7); (-2, -2) ])
    all_conds

let test_cond_swap_semantics () =
  List.iter
    (fun c ->
      List.iter
        (fun (a, b) ->
          check_bool "swap" (Mir.Cond.eval c a b)
            (Mir.Cond.eval (Mir.Cond.swap c) b a))
        [ (0, 0); (1, 2); (2, 1); (-5, 3); (3, 3) ])
    all_conds

let test_cond_eval_table () =
  check_bool "1 = 1" true (Mir.Cond.eval Mir.Cond.Eq 1 1);
  check_bool "1 <> 2" true (Mir.Cond.eval Mir.Cond.Ne 1 2);
  check_bool "1 < 2" true (Mir.Cond.eval Mir.Cond.Lt 1 2);
  check_bool "2 < 1 fails" false (Mir.Cond.eval Mir.Cond.Lt 2 1);
  check_bool "2 <= 2" true (Mir.Cond.eval Mir.Cond.Le 2 2);
  check_bool "3 > 2" true (Mir.Cond.eval Mir.Cond.Gt 3 2);
  check_bool "-1 >= -1" true (Mir.Cond.eval Mir.Cond.Ge (-1) (-1));
  check_bool "-2 >= -1 fails" false (Mir.Cond.eval Mir.Cond.Ge (-2) (-1))

(* ------------------------------------------------------------------ *)
(* Insn                                                                *)
(* ------------------------------------------------------------------ *)

let r n = Mir.Reg.of_int n
let reg n = Mir.Operand.Reg (r n)
let imm n = Mir.Operand.Imm n

let test_insn_eval_binop () =
  check_int "add" 7 (Mir.Insn.eval_binop Mir.Insn.Add 3 4);
  check_int "sub" (-1) (Mir.Insn.eval_binop Mir.Insn.Sub 3 4);
  check_int "mul" 12 (Mir.Insn.eval_binop Mir.Insn.Mul 3 4);
  check_int "div trunc" (-2) (Mir.Insn.eval_binop Mir.Insn.Div (-7) 3);
  check_int "rem sign" (-1) (Mir.Insn.eval_binop Mir.Insn.Rem (-7) 3);
  check_int "and" 4 (Mir.Insn.eval_binop Mir.Insn.And 6 12);
  check_int "or" 14 (Mir.Insn.eval_binop Mir.Insn.Or 6 12);
  check_int "xor" 10 (Mir.Insn.eval_binop Mir.Insn.Xor 6 12);
  check_int "shl" 24 (Mir.Insn.eval_binop Mir.Insn.Shl 3 3);
  check_int "shr arithmetic" (-2) (Mir.Insn.eval_binop Mir.Insn.Shr (-8) 2);
  (match Mir.Insn.eval_binop Mir.Insn.Div 1 0 with
  | exception Division_by_zero -> ()
  | _ -> Alcotest.fail "division by zero must raise")

let test_insn_defs_uses () =
  let i = Mir.Insn.Binop (Mir.Insn.Add, r 1, reg 2, reg 3) in
  check_int "defs" 1 (List.length (Mir.Insn.defs i));
  check_int "uses" 2 (List.length (Mir.Insn.uses i));
  let store = Mir.Insn.Store ("g", reg 4, imm 7) in
  check_int "store defs" 0 (List.length (Mir.Insn.defs store));
  check_int "store uses" 1 (List.length (Mir.Insn.uses store));
  let call = Mir.Insn.Call (Some (r 5), "f", [ reg 1; imm 2; reg 3 ]) in
  check_int "call defs" 1 (List.length (Mir.Insn.defs call));
  check_int "call uses" 2 (List.length (Mir.Insn.uses call))

let test_insn_purity () =
  check_bool "mov pure" true (Mir.Insn.is_pure (Mir.Insn.Mov (r 1, imm 2)));
  check_bool "div impure" false
    (Mir.Insn.is_pure (Mir.Insn.Binop (Mir.Insn.Div, r 1, reg 2, reg 3)));
  check_bool "store impure" false
    (Mir.Insn.is_pure (Mir.Insn.Store ("g", imm 0, imm 0)));
  check_bool "call impure" false
    (Mir.Insn.is_pure (Mir.Insn.Call (None, "f", [])));
  check_bool "profile is profile" true
    (Mir.Insn.is_profile (Mir.Insn.Profile_range (0, r 1)));
  check_bool "cmp not side effect" false
    (Mir.Insn.has_side_effect (Mir.Insn.Cmp (reg 1, imm 2)));
  check_bool "store side effect" true
    (Mir.Insn.has_side_effect (Mir.Insn.Store ("g", imm 0, imm 0)))

(* ------------------------------------------------------------------ *)
(* Block / static counts                                               *)
(* ------------------------------------------------------------------ *)

let test_static_count_fallthrough_jump () =
  let b = Mir.Block.make ~label:"a" [ Mir.Insn.Mov (r 1, imm 0) ] (Mir.Block.Jmp "b") in
  check_int "jmp to next is free" 1
    (Mir.Block.static_insn_count ~layout_next:(Some "b") b);
  check_int "jmp away costs transfer+slot" 3
    (Mir.Block.static_insn_count ~layout_next:(Some "c") b)

let test_static_count_branch () =
  let b =
    Mir.Block.make ~label:"a"
      [ Mir.Insn.Cmp (reg 1, imm 0) ]
      (Mir.Block.Br (Mir.Cond.Eq, "t", "f"))
  in
  check_int "branch with fallthrough" 3
    (Mir.Block.static_insn_count ~layout_next:(Some "f") b);
  check_int "branch needing extra jump" 5
    (Mir.Block.static_insn_count ~layout_next:(Some "x") b)

let test_static_count_filled_slot () =
  let b =
    Mir.Block.make ~label:"a"
      [ Mir.Insn.Mov (r 1, imm 0); Mir.Insn.Cmp (reg 1, imm 0) ]
      (Mir.Block.Br (Mir.Cond.Eq, "t", "f"))
  in
  let before = Mir.Block.static_insn_count ~layout_next:(Some "f") b in
  (* move the mov into the delay slot: one nop disappears *)
  b.Mir.Block.insns <- [ Mir.Insn.Cmp (reg 1, imm 0) ];
  b.Mir.Block.term <-
    { b.Mir.Block.term with Mir.Block.delay = Some (Mir.Insn.Mov (r 1, imm 0)) };
  let after = Mir.Block.static_insn_count ~layout_next:(Some "f") b in
  check_int "filling a slot saves one instruction" (before - 1) after

let test_successors () =
  let jtab _ = [| "x"; "y"; "x" |] in
  let b = Mir.Block.make ~label:"a" [] (Mir.Block.Jtab (r 1, 0)) in
  Alcotest.(check (list string)) "jtab successors dedup" [ "x"; "y" ]
    (Mir.Block.successors ~jtab b);
  let br = Mir.Block.make ~label:"a" [] (Mir.Block.Br (Mir.Cond.Eq, "t", "t")) in
  Alcotest.(check (list string)) "br same targets dedup" [ "t" ]
    (Mir.Block.successors ~jtab br)

(* ------------------------------------------------------------------ *)
(* Func                                                                *)
(* ------------------------------------------------------------------ *)

let diamond () =
  (* entry -> (t|f) -> join -> ret *)
  let fn = Mir.Func.make ~name:"d" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (reg 0, imm 0) ]
       (Mir.Block.Br (Mir.Cond.Eq, "t", "f")));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"t" [ Mir.Insn.Mov (r 1, imm 1) ] (Mir.Block.Jmp "join"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"f" [ Mir.Insn.Mov (r 1, imm 2) ] (Mir.Block.Jmp "join"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"join" [] (Mir.Block.Ret (Some (reg 1))));
  fn

let test_func_lookup_and_fresh () =
  let fn = diamond () in
  check_bool "find existing" true (Mir.Func.find_block_opt fn "join" <> None);
  check_bool "find missing" true (Mir.Func.find_block_opt fn "nope" = None);
  let l1 = Mir.Func.fresh_label fn and l2 = Mir.Func.fresh_label fn in
  check_bool "fresh labels distinct" true (not (String.equal l1 l2));
  let r1 = Mir.Func.fresh_reg fn and r2 = Mir.Func.fresh_reg fn in
  check_bool "fresh regs distinct" true (not (Mir.Reg.equal r1 r2));
  check_bool "fresh reg avoids params" true
    (Mir.Reg.to_int r1 > 0)

let test_func_predecessors () =
  let fn = diamond () in
  let preds = Mir.Func.predecessors fn in
  Alcotest.(check (list string)) "join preds" [ "t"; "f" ]
    (Hashtbl.find preds "join");
  Alcotest.(check (list string)) "entry preds" [] (Hashtbl.find preds "entry")

(* Predecessor lists follow the layout, one entry per edge source, also
   where a switch or a jump table repeats a target or names a label
   outside the function *)
let test_func_predecessors_layout_order () =
  let fn = Mir.Func.make ~name:"p" ~params:[ r 0 ] in
  let tbl = Mir.Func.add_jtable fn [| "c"; "b"; "c"; "gone" |] in
  List.iter (Mir.Func.add_block fn)
    [ Mir.Block.make ~label:"entry" []
        (Mir.Block.Switch (r 0, [ (1, "b"); (2, "a"); (3, "b") ], "out"));
      Mir.Block.make ~label:"a" [] (Mir.Block.Jtab (r 0, tbl));
      Mir.Block.make ~label:"b" [ Mir.Insn.Cmp (reg 0, imm 0) ]
        (Mir.Block.Br (Mir.Cond.Eq, "c", "a"));
      Mir.Block.make ~label:"c" [] (Mir.Block.Jmp "b");
      Mir.Block.make ~label:"d" []
        (Mir.Block.Switch (r 0, [ (1, "c"); (2, "c") ], "a")) ];
  let preds = Mir.Func.predecessors fn in
  List.iter
    (fun (label, expected) ->
      Alcotest.(check (list string)) (label ^ " preds") expected
        (Hashtbl.find preds label))
    [ ("entry", []); ("a", [ "entry"; "b"; "d" ]); ("b", [ "entry"; "a"; "c" ]);
      ("c", [ "a"; "b"; "d" ]); ("d", []); ("out", [ "entry" ]);
      ("gone", [ "a" ]) ];
  check_int "one entry per label" 7 (Hashtbl.length preds)

let test_func_reachable () =
  let fn = diamond () in
  Mir.Func.add_block fn (Mir.Block.make ~label:"dead" [] (Mir.Block.Jmp "join"));
  let reach = Mir.Func.reachable fn in
  check_bool "join reachable" true (Hashtbl.mem reach "join");
  check_bool "dead not reachable" false (Hashtbl.mem reach "dead")

let test_insert_blocks_after () =
  let fn = diamond () in
  let nb = Mir.Block.make ~label:"mid" [] (Mir.Block.Jmp "join") in
  Mir.Func.insert_blocks_after fn "t" [ nb ];
  let labels = List.map (fun b -> b.Mir.Block.label) fn.Mir.Func.blocks in
  Alcotest.(check (list string)) "inserted after t"
    [ "entry"; "t"; "mid"; "f"; "join" ] labels;
  (match Mir.Func.insert_blocks_after fn "nope" [] with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found")

let test_jtables () =
  let fn = diamond () in
  let id = Mir.Func.add_jtable fn [| "t"; "f" |] in
  check_int "first table id" 0 id;
  let id2 = Mir.Func.add_jtable fn [| "join" |] in
  check_int "second table id" 1 id2;
  check_int "table lookup" 2 (Array.length (Mir.Func.jtab fn 0));
  match Mir.Func.jtab fn 5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad table id must raise"

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

let test_liveness_diamond () =
  let fn = diamond () in
  let live = Mir.Liveness.compute fn in
  check_bool "r0 live into entry" true
    (Mir.Reg.Set.mem (r 0) (Mir.Liveness.live_in live "entry"));
  check_bool "r1 live out of t" true
    (Mir.Reg.Set.mem (r 1) (Mir.Liveness.live_out live "t"));
  check_bool "r1 not live into entry" false
    (Mir.Reg.Set.mem (r 1) (Mir.Liveness.live_in live "entry"))

let test_liveness_loop () =
  (* head: cmp r1, 10; bge exit | body; body: r1 = r1 + 1; jmp head *)
  let fn = Mir.Func.make ~name:"l" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry" [ Mir.Insn.Mov (r 1, imm 0) ] (Mir.Block.Jmp "head"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"head"
       [ Mir.Insn.Cmp (reg 1, imm 10) ]
       (Mir.Block.Br (Mir.Cond.Ge, "exit", "body")));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"body"
       [ Mir.Insn.Binop (Mir.Insn.Add, r 1, reg 1, imm 1) ]
       (Mir.Block.Jmp "head"));
  Mir.Func.add_block fn (Mir.Block.make ~label:"exit" [] (Mir.Block.Ret (Some (reg 1))));
  let live = Mir.Liveness.compute fn in
  check_bool "loop-carried r1 live around the back edge" true
    (Mir.Reg.Set.mem (r 1) (Mir.Liveness.live_out live "body"));
  check_bool "r1 live into head" true
    (Mir.Reg.Set.mem (r 1) (Mir.Liveness.live_in live "head"))

let test_liveness_delay_slot () =
  let fn = diamond () in
  let entry = Mir.Func.entry fn in
  entry.Mir.Block.term <-
    { entry.Mir.Block.term with Mir.Block.delay = Some (Mir.Insn.Mov (r 2, reg 3)) };
  let live = Mir.Liveness.compute fn in
  check_bool "delay-slot use live into entry" true
    (Mir.Reg.Set.mem (r 3) (Mir.Liveness.live_in live "entry"))

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)
(* ------------------------------------------------------------------ *)

let prog_of fn =
  let p = Mir.Program.make () in
  Mir.Program.add_func p fn;
  p

let test_validate_ok () =
  match Mir.Validate.func (diamond ()) with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es)

let test_validate_undefined_label () =
  let fn = diamond () in
  (Mir.Func.find_block fn "t").Mir.Block.term <-
    Mir.Block.term (Mir.Block.Jmp "nowhere");
  expect_invalid ~substr:"undefined label" (Mir.Validate.func fn)

let test_validate_duplicate_label () =
  let fn = diamond () in
  Mir.Func.add_block fn (Mir.Block.make ~label:"t" [] (Mir.Block.Ret None));
  expect_invalid ~substr:"duplicate label" (Mir.Validate.func fn)

let test_validate_missing_cmp () =
  let fn = Mir.Func.make ~name:"m" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry" [] (Mir.Block.Br (Mir.Cond.Eq, "a", "b")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"a" [] (Mir.Block.Ret None));
  Mir.Func.add_block fn (Mir.Block.make ~label:"b" [] (Mir.Block.Ret None));
  expect_invalid ~substr:"not dominated by a cmp" (Mir.Validate.func fn)

let test_validate_cmp_via_all_paths () =
  (* both predecessors set the codes: the compare-less branch is fine *)
  let fn = Mir.Func.make ~name:"m" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (reg 0, imm 5) ]
       (Mir.Block.Br (Mir.Cond.Eq, "shared", "other")));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"other"
       [ Mir.Insn.Cmp (reg 0, imm 9) ]
       (Mir.Block.Br (Mir.Cond.Eq, "shared", "out")));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"shared" [] (Mir.Block.Br (Mir.Cond.Lt, "out", "out2")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"out" [] (Mir.Block.Ret None));
  Mir.Func.add_block fn (Mir.Block.make ~label:"out2" [] (Mir.Block.Ret None));
  match Mir.Validate.func fn with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es)

let test_validate_unlowered_switch () =
  let fn = Mir.Func.make ~name:"m" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry" [] (Mir.Block.Switch (r 0, [ (1, "a") ], "a")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"a" [] (Mir.Block.Ret None));
  expect_invalid ~substr:"unlowered switch" (Mir.Validate.func fn);
  match Mir.Validate.func ~allow_switch:true fn with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es)

let test_validate_delay_cmp () =
  let fn = diamond () in
  let entry = Mir.Func.entry fn in
  entry.Mir.Block.term <-
    { entry.Mir.Block.term with Mir.Block.delay = Some (Mir.Insn.Cmp (reg 1, imm 0)) };
  expect_invalid ~substr:"delay slot" (Mir.Validate.func fn)

let test_validate_uninitialized () =
  let fn = Mir.Func.make ~name:"m" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry" [] (Mir.Block.Ret (Some (reg 7))));
  expect_invalid ~substr:"read before written"
    (Mir.Validate.func ~check_init:true fn);
  (* without the flag it passes *)
  match Mir.Validate.func fn with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es)

let test_validate_program_collects () =
  let p = prog_of (diamond ()) in
  let bad = Mir.Func.make ~name:"bad" ~params:[] in
  Mir.Func.add_block bad (Mir.Block.make ~label:"e" [] (Mir.Block.Jmp "gone"));
  Mir.Program.add_func p bad;
  expect_invalid (Mir.Validate.program p)

(* ------------------------------------------------------------------ *)
(* Clone                                                               *)
(* ------------------------------------------------------------------ *)

let test_clone_independence () =
  let fn = diamond () in
  let p = prog_of fn in
  Mir.Program.add_global p { Mir.Program.gname = "g"; size = 4; init = None };
  let copy = Mir.Clone.program p in
  (* mutate the original; the copy must not change *)
  let orig_entry = Mir.Func.entry fn in
  orig_entry.Mir.Block.insns <- [];
  orig_entry.Mir.Block.term <- Mir.Block.term (Mir.Block.Jmp "join");
  let copy_entry = Mir.Func.entry (Mir.Program.find_func copy "d") in
  check_int "copy keeps instructions" 1 (List.length copy_entry.Mir.Block.insns);
  check_bool "copy keeps terminator" true
    (match copy_entry.Mir.Block.term.Mir.Block.kind with
    | Mir.Block.Br _ -> true
    | _ -> false)

let test_program_intern_string () =
  let p = Mir.Program.make () in
  let a = Mir.Program.intern_string p "hello" in
  let b = Mir.Program.intern_string p "hello" in
  let c = Mir.Program.intern_string p "world" in
  check_bool "same string deduplicates" true (String.equal a b);
  check_bool "different strings differ" true (not (String.equal a c));
  match Mir.Program.find_global_opt p a with
  | Some g -> check_int "zero-terminated words" 6 g.Mir.Program.size
  | None -> Alcotest.fail "interned global not found"

let suite =
  [
    case "cond: negate is an involution" test_cond_negate_involution;
    case "cond: negate flips evaluation" test_cond_negate_semantics;
    case "cond: swap mirrors operands" test_cond_swap_semantics;
    case "cond: evaluation table" test_cond_eval_table;
    case "insn: binop evaluation" test_insn_eval_binop;
    case "insn: defs and uses" test_insn_defs_uses;
    case "insn: purity and side effects" test_insn_purity;
    case "block: fall-through jump is free" test_static_count_fallthrough_jump;
    case "block: branch static cost" test_static_count_branch;
    case "block: filled delay slot saves a nop" test_static_count_filled_slot;
    case "block: successor computation" test_successors;
    case "func: lookup and fresh names" test_func_lookup_and_fresh;
    case "func: predecessors" test_func_predecessors;
    case "func: predecessors in layout order" test_func_predecessors_layout_order;
    case "func: reachability" test_func_reachable;
    case "func: insert_blocks_after" test_insert_blocks_after;
    case "func: jump tables" test_jtables;
    case "liveness: diamond" test_liveness_diamond;
    case "liveness: loop-carried register" test_liveness_loop;
    case "liveness: delay-slot uses" test_liveness_delay_slot;
    case "validate: well-formed function" test_validate_ok;
    case "validate: undefined label" test_validate_undefined_label;
    case "validate: duplicate label" test_validate_duplicate_label;
    case "validate: branch without cmp" test_validate_missing_cmp;
    case "validate: cmp on all paths is accepted" test_validate_cmp_via_all_paths;
    case "validate: unlowered switch" test_validate_unlowered_switch;
    case "validate: cmp in delay slot" test_validate_delay_cmp;
    case "validate: read before written" test_validate_uninitialized;
    case "validate: program-level collection" test_validate_program_collects;
    case "clone: deep copy is independent" test_clone_independence;
    case "program: string interning" test_program_intern_string;
  ]
