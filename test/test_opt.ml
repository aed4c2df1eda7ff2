(* Conventional-optimizer tests: each pass in isolation plus
   switch-lowering shape and equivalence checks. *)

open Helpers

let r n = Mir.Reg.of_int n
let reg n = Mir.Operand.Reg (r n)
let imm n = Mir.Operand.Imm n

let block_labels fn = List.map (fun b -> b.Mir.Block.label) fn.Mir.Func.blocks

(* ------------------------------------------------------------------ *)
(* Branch chaining                                                      *)
(* ------------------------------------------------------------------ *)

let test_chain_collapse () =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (reg 0, imm 1) ]
       (Mir.Block.Br (Mir.Cond.Eq, "hop1", "out")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"hop1" [] (Mir.Block.Jmp "hop2"));
  Mir.Func.add_block fn (Mir.Block.make ~label:"hop2" [] (Mir.Block.Jmp "final"));
  Mir.Func.add_block fn (Mir.Block.make ~label:"final" [] (Mir.Block.Ret None));
  Mir.Func.add_block fn (Mir.Block.make ~label:"out" [] (Mir.Block.Ret None));
  check_bool "changed" true (Mopt.Branch_chain.run_func fn);
  match (Mir.Func.entry fn).Mir.Block.term.Mir.Block.kind with
  | Mir.Block.Br (_, taken, _) -> check_output "retargeted" "final" taken
  | _ -> Alcotest.fail "terminator changed shape"

let test_chain_cycle_safe () =
  (* two empty jump blocks pointing at each other must not loop *)
  let fn = Mir.Func.make ~name:"f" ~params:[] in
  Mir.Func.add_block fn (Mir.Block.make ~label:"entry" [] (Mir.Block.Jmp "a"));
  Mir.Func.add_block fn (Mir.Block.make ~label:"a" [] (Mir.Block.Jmp "b"));
  Mir.Func.add_block fn (Mir.Block.make ~label:"b" [] (Mir.Block.Jmp "a"));
  ignore (Mopt.Branch_chain.run_func fn)

let test_branch_same_targets () =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (reg 0, imm 1) ]
       (Mir.Block.Br (Mir.Cond.Eq, "x", "x")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"x" [] (Mir.Block.Ret None));
  ignore (Mopt.Branch_chain.run_func fn);
  match (Mir.Func.entry fn).Mir.Block.term.Mir.Block.kind with
  | Mir.Block.Jmp "x" -> ()
  | _ -> Alcotest.fail "br with equal arms should become a jump"

let test_constant_branch_fold () =
  let fn = Mir.Func.make ~name:"f" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (imm 3, imm 3) ]
       (Mir.Block.Br (Mir.Cond.Eq, "yes", "no")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"yes" [] (Mir.Block.Ret (Some (imm 1))));
  Mir.Func.add_block fn (Mir.Block.make ~label:"no" [] (Mir.Block.Ret (Some (imm 0))));
  ignore (Mopt.Branch_chain.run_func fn);
  match (Mir.Func.entry fn).Mir.Block.term.Mir.Block.kind with
  | Mir.Block.Jmp "yes" -> ()
  | _ -> Alcotest.fail "constant comparison should fold"

(* ------------------------------------------------------------------ *)
(* Copy propagation / constant folding                                  *)
(* ------------------------------------------------------------------ *)

let run_copyprop insns =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn (Mir.Block.make ~label:"entry" insns (Mir.Block.Ret (Some (reg 9))));
  ignore (Mopt.Copy_prop.run_func fn);
  (Mir.Func.entry fn).Mir.Block.insns

let test_copyprop_constants () =
  match
    run_copyprop
      [ Mir.Insn.Mov (r 1, imm 4);
        Mir.Insn.Binop (Mir.Insn.Add, r 2, reg 1, imm 6);
        Mir.Insn.Binop (Mir.Insn.Mul, r 9, reg 2, reg 1) ]
  with
  | [ _; Mir.Insn.Mov (_, Mir.Operand.Imm 10); Mir.Insn.Mov (_, Mir.Operand.Imm 40) ] ->
    ()
  | insns ->
    Alcotest.failf "constants not folded: %s"
      (String.concat "; " (List.map Mir.Insn.show insns))

let test_copyprop_identities () =
  (match run_copyprop [ Mir.Insn.Binop (Mir.Insn.Add, r 9, reg 0, imm 0) ] with
  | [ Mir.Insn.Mov (_, Mir.Operand.Reg _) ] -> ()
  | _ -> Alcotest.fail "x + 0 should simplify");
  match run_copyprop [ Mir.Insn.Binop (Mir.Insn.Mul, r 9, reg 0, imm 0) ] with
  | [ Mir.Insn.Mov (_, Mir.Operand.Imm 0) ] -> ()
  | _ -> Alcotest.fail "x * 0 should be 0"

let test_copyprop_self_move_removed () =
  match run_copyprop [ Mir.Insn.Mov (r 9, reg 9) ] with
  | [] -> ()
  | _ -> Alcotest.fail "self move should disappear"

let test_copyprop_invalidates_on_redef () =
  match
    run_copyprop
      [ Mir.Insn.Mov (r 1, imm 4);
        Mir.Insn.Call (Some (r 1), "getchar", []);
        Mir.Insn.Binop (Mir.Insn.Add, r 9, reg 1, imm 0) ]
  with
  | [ _; _; Mir.Insn.Mov (_, Mir.Operand.Reg src) ] ->
    check_int "uses the redefined register" 1 (Mir.Reg.to_int src)
  | insns ->
    Alcotest.failf "unexpected: %s"
      (String.concat "; " (List.map Mir.Insn.show insns))

let test_copyprop_keeps_compared_register () =
  (* cmp must keep the variable's register (constants still propagate) *)
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Mov (r 1, reg 0);
         Mir.Insn.Mov (r 2, imm 7);
         Mir.Insn.Cmp (reg 1, reg 2) ]
       (Mir.Block.Br (Mir.Cond.Eq, "a", "b")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"a" [] (Mir.Block.Ret None));
  Mir.Func.add_block fn (Mir.Block.make ~label:"b" [] (Mir.Block.Ret None));
  ignore (Mopt.Copy_prop.run_func fn);
  let cmp =
    List.find
      (function Mir.Insn.Cmp _ -> true | _ -> false)
      (Mir.Func.entry fn).Mir.Block.insns
  in
  match cmp with
  | Mir.Insn.Cmp (Mir.Operand.Reg kept, Mir.Operand.Imm 7) ->
    check_int "register operand untouched" 1 (Mir.Reg.to_int kept)
  | i -> Alcotest.failf "unexpected compare %s" (Mir.Insn.show i)

(* ------------------------------------------------------------------ *)
(* Dead code                                                           *)
(* ------------------------------------------------------------------ *)

let test_dead_code_cascade () =
  let fn = Mir.Func.make ~name:"f" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Mov (r 1, imm 4);
         Mir.Insn.Binop (Mir.Insn.Add, r 2, reg 1, imm 1);
         Mir.Insn.Binop (Mir.Insn.Add, r 3, reg 2, imm 1);
         Mir.Insn.Mov (r 4, imm 9) ]
       (Mir.Block.Ret (Some (reg 4))));
  ignore (Mopt.Dead_code.run_func fn);
  check_int "only the live mov survives" 1
    (List.length (Mir.Func.entry fn).Mir.Block.insns)

let test_dead_code_keeps_effects () =
  let fn = Mir.Func.make ~name:"f" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Store ("g", imm 0, imm 1);
         Mir.Insn.Call (Some (r 5), "getchar", []) ]
       (Mir.Block.Ret None));
  let p = Mir.Program.make () in
  Mir.Program.add_global p { Mir.Program.gname = "g"; size = 1; init = None };
  Mir.Program.add_func p fn;
  ignore (Mopt.Dead_code.run_func fn);
  check_int "store and call survive" 2
    (List.length (Mir.Func.entry fn).Mir.Block.insns)

let test_dead_code_loop_carried () =
  (* a register only used around a loop must stay live *)
  let prog =
    compile
      "int main() { int i = 0; int s = 0; while (i < 100) { s += i; i++; } \
       print_int(s); return 0; }"
  in
  check_output "sum survives optimization" "4950"
    (run_prog prog).Sim.Machine.output

(* ------------------------------------------------------------------ *)
(* Unreachable / reposition / delay slots                               *)
(* ------------------------------------------------------------------ *)

let test_unreachable_removed () =
  let fn = Mir.Func.make ~name:"f" ~params:[] in
  Mir.Func.add_block fn (Mir.Block.make ~label:"entry" [] (Mir.Block.Ret None));
  Mir.Func.add_block fn (Mir.Block.make ~label:"dead" [] (Mir.Block.Ret None));
  check_bool "changed" true (Mopt.Unreachable.run_func fn);
  Alcotest.(check (list string)) "only entry" [ "entry" ] (block_labels fn)

let test_reposition_follows_fallthrough () =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (reg 0, imm 0) ]
       (Mir.Block.Br (Mir.Cond.Eq, "cold", "hot")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"cold" [] (Mir.Block.Ret None));
  Mir.Func.add_block fn (Mir.Block.make ~label:"hot" [] (Mir.Block.Ret None));
  ignore (Mopt.Reposition.run_func fn);
  Alcotest.(check (list string)) "not-taken successor placed next"
    [ "entry"; "hot"; "cold" ] (block_labels fn)

let test_reposition_keeps_entry_first () =
  let fn = Mir.Func.make ~name:"f" ~params:[] in
  Mir.Func.add_block fn (Mir.Block.make ~label:"entry" [] (Mir.Block.Jmp "loop"));
  Mir.Func.add_block fn (Mir.Block.make ~label:"other" [] (Mir.Block.Ret None));
  Mir.Func.add_block fn (Mir.Block.make ~label:"loop" [] (Mir.Block.Jmp "other"));
  ignore (Mopt.Reposition.run_func fn);
  check_output "entry still first" "entry" (List.hd (block_labels fn))

let test_delay_slot_fills () =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (reg 0, imm 0); Mir.Insn.Mov (r 1, imm 5) ]
       (Mir.Block.Br (Mir.Cond.Eq, "a", "b")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"b" [] (Mir.Block.Ret None));
  Mir.Func.add_block fn (Mir.Block.make ~label:"a" [] (Mir.Block.Ret None));
  check_int "one slot filled" 1 (Mopt.Delay_slot.run_func fn);
  let entry = Mir.Func.entry fn in
  check_int "mov moved out of the body" 1 (List.length entry.Mir.Block.insns);
  check_bool "slot holds the mov" true
    (match entry.Mir.Block.term.Mir.Block.delay with
    | Some (Mir.Insn.Mov _) -> true
    | _ -> false)

let test_delay_slot_refuses_cmp () =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (reg 0, imm 0) ]
       (Mir.Block.Br (Mir.Cond.Eq, "a", "b")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"b" [] (Mir.Block.Ret None));
  Mir.Func.add_block fn (Mir.Block.make ~label:"a" [] (Mir.Block.Ret None));
  check_int "cmp cannot fill its own branch's slot" 0
    (Mopt.Delay_slot.run_func fn)

let test_delay_slot_refuses_term_use () =
  let fn = Mir.Func.make ~name:"f" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Mov (r 1, imm 5) ]
       (Mir.Block.Ret (Some (reg 1))));
  check_int "ret operand definition cannot move into its slot" 0
    (Mopt.Delay_slot.run_func fn)

let test_delay_slot_skips_fallthrough_jump () =
  let fn = Mir.Func.make ~name:"f" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry" [ Mir.Insn.Mov (r 1, imm 5) ] (Mir.Block.Jmp "next"));
  Mir.Func.add_block fn (Mir.Block.make ~label:"next" [] (Mir.Block.Ret None));
  check_int "fall-through jump emits nothing to fill" 0
    (Mopt.Delay_slot.run_func fn)

let test_delay_slot_steals_from_taken_target () =
  (* nothing fillable from above; the taken target has a single pred: its
     first instruction moves into an annulled slot *)
  let fn = Mir.Func.make ~name:"main" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (imm 0, imm 0) ]
       (Mir.Block.Br (Mir.Cond.Eq, "t", "f")));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"f" [] (Mir.Block.Ret (Some (imm 0))));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"t"
       [ Mir.Insn.Mov (r 1, imm 42) ]
       (Mir.Block.Ret (Some (reg 1))));
  check_int "one slot stolen" 1 (Mopt.Delay_slot.run_func fn);
  let entry = Mir.Func.entry fn in
  check_bool "slot annulled" true entry.Mir.Block.term.Mir.Block.annul;
  check_int "target body emptied" 0
    (List.length (Mir.Func.find_block fn "t").Mir.Block.insns);
  (* taken path still returns 42 *)
  let p = Mir.Program.make () in
  Mir.Program.add_func p fn;
  check_int "taken executes the stolen insn" 42 (run_prog p).Sim.Machine.exit_code

let test_delay_slot_annul_squashes () =
  (* same shape but the branch is never taken: the annulled slot must not
     execute and must not be charged *)
  let fn = Mir.Func.make ~name:"main" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (imm 1, imm 0) ]
       (Mir.Block.Br (Mir.Cond.Eq, "t", "f")));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"f" [ Mir.Insn.Mov (r 2, imm 7) ] (Mir.Block.Ret (Some (reg 2))));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"t"
       [ Mir.Insn.Mov (r 1, imm 42) ]
       (Mir.Block.Ret (Some (reg 1))));
  ignore (Mopt.Delay_slot.run_func fn);
  let p = Mir.Program.make () in
  Mir.Program.add_func p fn;
  let result = run_prog p in
  check_int "falls through to f" 7 result.Sim.Machine.exit_code;
  (* cmp + br (squashed slot: 0) + mov + ret + ret-slot(mov stolen? the
     ret of f: fill-from-above moved nothing since mov feeds ret) + nop *)
  check_bool "squashed slot not charged" true
    (result.Sim.Machine.counters.Sim.Counters.insns <= 6)

let test_delay_slot_jmp_steal_no_annul () =
  let fn = Mir.Func.make ~name:"main" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry" [] (Mir.Block.Jmp "far"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"mid" [] (Mir.Block.Ret (Some (imm 1))));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"far"
       [ Mir.Insn.Mov (r 1, imm 9) ]
       (Mir.Block.Ret (Some (reg 1))));
  check_int "jump slot stolen" 1 (Mopt.Delay_slot.run_func fn);
  check_bool "not annulled" false (Mir.Func.entry fn).Mir.Block.term.Mir.Block.annul;
  let p = Mir.Program.make () in
  Mir.Program.add_func p fn;
  check_int "behaviour preserved" 9 (run_prog p).Sim.Machine.exit_code

let test_delay_slot_no_steal_multi_pred () =
  (* two branches share the target: stealing would break the other path *)
  let fn = Mir.Func.make ~name:"main" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (imm 0, imm 0) ]
       (Mir.Block.Br (Mir.Cond.Eq, "shared", "other")));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"other" [] (Mir.Block.Jmp "shared"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"shared"
       [ Mir.Insn.Mov (r 1, imm 3) ]
       (Mir.Block.Ret (Some (reg 1))));
  ignore (Mopt.Delay_slot.run_func fn);
  check_int "shared target keeps its instruction" 1
    (List.length (Mir.Func.find_block fn "shared").Mir.Block.insns)

let test_delay_slot_equal_arms_not_stolen () =
  (* both arms name t, so t has one predecessor, but the not-taken path
     also runs t: an annulled slot would skip [r1 = 7] there *)
  let p =
    Mir.Parse.program
      "function main():\nentry:\n  r1 = 5\n  cmp r1, 3\n  be -> t | t\n\
       t:\n  r1 = 7\n  ret r1\n"
  in
  Mir.Validate.check p;
  check_int "before the pass" 7 (run_prog p).Sim.Machine.exit_code;
  ignore (Mopt.Delay_slot.run p);
  check_int "after the pass" 7 (run_prog p).Sim.Machine.exit_code;
  check_int "t keeps its instruction" 1
    (List.length
       (Mir.Func.find_block (Mir.Program.find_func p "main") "t")
         .Mir.Block.insns)

let test_annul_text_roundtrip () =
  let text =
    "function main():\nentry:\n  cmp 0, 0\n  be -> t | f  ; delay,a: r1 = 42\nf:\n\
    \  ret 0\nt:\n  ret r1\n"
  in
  let p = Mir.Parse.program text in
  check_output "round trip stable" (Mir.Program.to_string p)
    (Mir.Program.to_string (Mir.Parse.program (Mir.Program.to_string p)));
  check_int "annulled slot executes on taken" 42 (run_prog p).Sim.Machine.exit_code

let test_delay_slot_strip_roundtrip () =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (reg 0, imm 0); Mir.Insn.Mov (r 1, imm 5) ]
       (Mir.Block.Br (Mir.Cond.Eq, "a", "b")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"b" [] (Mir.Block.Ret None));
  Mir.Func.add_block fn (Mir.Block.make ~label:"a" [] (Mir.Block.Ret None));
  ignore (Mopt.Delay_slot.run_func fn);
  Mopt.Delay_slot.strip_func fn;
  check_int "body restored" 2 (List.length (Mir.Func.entry fn).Mir.Block.insns);
  check_bool "slot empty" true
    ((Mir.Func.entry fn).Mir.Block.term.Mir.Block.delay = None)

(* ------------------------------------------------------------------ *)
(* Switch lowering                                                     *)
(* ------------------------------------------------------------------ *)

let switch_src ncases ~dense =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "int main() { int c; int s = 0;\n";
  Buffer.add_string buf "  while ((c = getchar()) != EOF) { switch (c % 256) {\n";
  for i = 0 to ncases - 1 do
    let v = if dense then 97 + i else 97 + (i * 7) in
    Buffer.add_string buf (Printf.sprintf "  case %d: s += %d; break;\n" v (i + 1))
  done;
  Buffer.add_string buf "  default: s--; } }\n print_int(s); return 0; }\n";
  Buffer.contents buf

let shape_of prog =
  let fn = Mir.Program.find_func prog "main" in
  let has_jtab = ref false and branches = ref 0 in
  Mir.Func.iter_blocks fn (fun b ->
      match b.Mir.Block.term.Mir.Block.kind with
      | Mir.Block.Jtab _ -> has_jtab := true
      | Mir.Block.Br _ -> incr branches
      | _ -> ());
  (!has_jtab, !branches)

let test_switch_shapes () =
  (* dense 10-case switch: indirect under I, binary under II, linear under III *)
  let src = switch_src 10 ~dense:true in
  let jt1, _ = shape_of (compile ~heuristic:Mopt.Switch_lower.set_i src) in
  let jt2, br2 = shape_of (compile ~heuristic:Mopt.Switch_lower.set_ii src) in
  let jt3, br3 = shape_of (compile ~heuristic:Mopt.Switch_lower.set_iii src) in
  check_bool "set I uses a jump table" true jt1;
  check_bool "set II avoids the jump table" false jt2;
  check_bool "set III avoids the jump table" false jt3;
  (* statically, binary search emits two branches per node while linear
     emits one per case; dynamically binary is shorter, which Table 4
     exercises -- here we only pin both shapes exist *)
  check_bool "both shapes produce branches" true (br2 > 0 && br3 > 0)

let test_switch_sparse_binary () =
  (* sparse 9-case switch: binary search for I and II, never indirect *)
  let src = switch_src 9 ~dense:false in
  let jt1, _ = shape_of (compile ~heuristic:Mopt.Switch_lower.set_i src) in
  check_bool "sparse switch gets no table" false jt1

let test_switch_small_linear () =
  let src = switch_src 3 ~dense:true in
  let jt, _ = shape_of (compile ~heuristic:Mopt.Switch_lower.set_i src) in
  check_bool "3 cases stay linear" false jt

let test_switch_equivalence () =
  (* all three shapes compute the same answer on the same input *)
  List.iter
    (fun (ncases, dense) ->
      let src = switch_src ncases ~dense in
      let input = Workloads.Textgen.prose ~seed:99 ~chars:2000 in
      let outputs =
        List.map
          (fun hs -> run_src ~heuristic:hs ~input src)
          Mopt.Switch_lower.all_sets
      in
      match outputs with
      | [ a; b; c ] ->
        check_output "I = II" a b;
        check_output "II = III" b c
      | _ -> assert false)
    [ (1, true); (4, true); (9, false); (10, true); (16, true); (20, false) ]

let test_switch_empty_and_holes () =
  check_output "default only" "-5"
    (run_src ~input:"abcde"
       "int main() { int c; int s = 0; while ((c = getchar()) != EOF) { \
        switch (c) { default: s--; } } print_int(s); return 0; }");
  (* dense table with holes: holes route to default *)
  let src =
    "int main() { int c; int s = 0; while ((c = getchar()) != EOF) { switch \
     (c) { case 'a': s += 1; break; case 'c': s += 2; break; case 'e': s += \
     4; break; case 'g': s += 8; break; default: s += 100; } } print_int(s); \
     return 0; }"
  in
  List.iter
    (fun hs -> check_output "holes" "107" (run_src ~heuristic:hs ~input:"aceb" src))
    Mopt.Switch_lower.all_sets

(* ------------------------------------------------------------------ *)
(* Global constant propagation                                          *)
(* ------------------------------------------------------------------ *)

let test_global_const_across_blocks () =
  (* a constant defined in the entry flows into a later block *)
  let fn = Mir.Func.make ~name:"f" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry" [ Mir.Insn.Mov (r 1, imm 7) ] (Mir.Block.Jmp "next"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"next"
       [ Mir.Insn.Binop (Mir.Insn.Add, r 2, reg 1, imm 1) ]
       (Mir.Block.Ret (Some (reg 2))));
  check_bool "changed" true (Mopt.Global_const.run_func fn);
  match (Mir.Func.find_block fn "next").Mir.Block.insns with
  | [ Mir.Insn.Binop (_, _, Mir.Operand.Imm 7, Mir.Operand.Imm 1) ] -> ()
  | insns ->
    Alcotest.failf "constant did not flow: %s"
      (String.concat "; " (List.map Mir.Insn.show insns))

let test_global_const_meet () =
  (* two predecessors assign different constants: the join must not fold *)
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (reg 0, imm 0) ]
       (Mir.Block.Br (Mir.Cond.Eq, "a", "b")));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"a" [ Mir.Insn.Mov (r 1, imm 1) ] (Mir.Block.Jmp "join"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"b" [ Mir.Insn.Mov (r 1, imm 2) ] (Mir.Block.Jmp "join"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"join"
       [ Mir.Insn.Binop (Mir.Insn.Add, r 2, reg 1, imm 1) ]
       (Mir.Block.Ret (Some (reg 2))));
  check_bool "no change at a conflicting join" false
    (Mopt.Global_const.run_func fn)

let test_global_const_agreeing_join () =
  (* both predecessors assign the same constant: fold at the join *)
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (reg 0, imm 0) ]
       (Mir.Block.Br (Mir.Cond.Eq, "a", "b")));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"a" [ Mir.Insn.Mov (r 1, imm 5) ] (Mir.Block.Jmp "join"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"b" [ Mir.Insn.Mov (r 1, imm 5) ] (Mir.Block.Jmp "join"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"join" [ Mir.Insn.Mov (r 2, reg 1) ] (Mir.Block.Ret (Some (reg 2))));
  check_bool "changed" true (Mopt.Global_const.run_func fn);
  match (Mir.Func.find_block fn "join").Mir.Block.insns with
  | [ Mir.Insn.Mov (_, Mir.Operand.Imm 5) ] -> ()
  | _ -> Alcotest.fail "agreeing constant should flow through the join"

let test_global_const_loop_kill () =
  (* a register incremented in a loop is not constant at the header *)
  let prog =
    compile
      "int main() { int i = 0; int s = 0; while (i < 3) { s += i; i++; } \
       print_int(s); return 0; }"
  in
  check_output "loop result" "3" (run_prog prog).Sim.Machine.output

let test_global_const_behaviour () =
  check_output "global constant threading" "25"
    (run_src
       "int main() { int a = 5; int b; if (getchar() == 'x') b = a * 4; else \
        b = a * 5; print_int(b); return 0; }")

let insns_of fn label = (Mir.Func.find_block fn label).Mir.Block.insns

let check_insns what expected actual =
  check_output what
    (String.concat "; " (List.map Mir.Insn.show expected))
    (String.concat "; " (List.map Mir.Insn.show actual))

let test_global_const_back_edge_into_entry () =
  (* the entry's in-state is the boundary (everything varying) met with
     the back edge: r1 is not 9 on entry, but is 7 once the entry
     assigns it *)
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [
         Mir.Insn.Mov (r 3, reg 1);
         Mir.Insn.Mov (r 1, imm 7);
         Mir.Insn.Binop (Mir.Insn.Add, r 2, reg 1, imm 1);
         Mir.Insn.Cmp (reg 0, imm 0);
       ]
       (Mir.Block.Br (Mir.Cond.Eq, "body", "exit")));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"body" [ Mir.Insn.Mov (r 1, imm 9) ] (Mir.Block.Jmp "entry"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"exit"
       [ Mir.Insn.Mov (r 4, reg 2); Mir.Insn.Mov (r 5, reg 3) ]
       (Mir.Block.Ret (Some (reg 4))));
  check_bool "changed" true (Mopt.Global_const.run_func fn);
  check_insns "entry"
    [
      Mir.Insn.Mov (r 3, reg 1);
      Mir.Insn.Mov (r 1, imm 7);
      Mir.Insn.Binop (Mir.Insn.Add, r 2, imm 7, imm 1);
      Mir.Insn.Cmp (reg 0, imm 0);
    ]
    (insns_of fn "entry");
  check_insns "exit: r2 is 8 on every path, r3 is not"
    [ Mir.Insn.Mov (r 4, imm 8); Mir.Insn.Mov (r 5, reg 3) ]
    (insns_of fn "exit")

let test_global_const_unreachable_blocks () =
  (* two unreached blocks, one a predecessor of the exit: they get no
     in-state, are not rewritten, and do not spoil the exit's constant *)
  let fn = Mir.Func.make ~name:"f" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry" [ Mir.Insn.Mov (r 1, imm 4) ] (Mir.Block.Jmp "exit"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"island"
       [ Mir.Insn.Binop (Mir.Insn.Add, r 2, reg 1, imm 1) ]
       (Mir.Block.Jmp "island2"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"island2"
       [ Mir.Insn.Mov (r 3, reg 1); Mir.Insn.Mov (r 1, imm 9) ]
       (Mir.Block.Jmp "exit"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"exit" [ Mir.Insn.Mov (r 5, reg 1) ] (Mir.Block.Ret (Some (reg 5))));
  check_bool "changed" true (Mopt.Global_const.run_func fn);
  check_insns "island untouched"
    [ Mir.Insn.Binop (Mir.Insn.Add, r 2, reg 1, imm 1) ]
    (insns_of fn "island");
  check_insns "island2 untouched"
    [ Mir.Insn.Mov (r 3, reg 1); Mir.Insn.Mov (r 1, imm 9) ]
    (insns_of fn "island2");
  check_insns "exit folds the reachable constant" [ Mir.Insn.Mov (r 5, imm 4) ]
    (insns_of fn "exit")

let test_global_const_loop_carried_varying () =
  (* r1 is 0 on loop entry and r1 + 1 around the back edge: varying at
     the header, in the body and after the loop *)
  let fn = Mir.Func.make ~name:"f" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry" [ Mir.Insn.Mov (r 1, imm 0) ] (Mir.Block.Jmp "head"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"head"
       [ Mir.Insn.Mov (r 3, reg 1); Mir.Insn.Cmp (reg 1, imm 10) ]
       (Mir.Block.Br (Mir.Cond.Lt, "body", "exit")));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"body"
       [ Mir.Insn.Binop (Mir.Insn.Add, r 1, reg 1, imm 1) ]
       (Mir.Block.Jmp "head"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"exit" [ Mir.Insn.Mov (r 4, reg 1) ] (Mir.Block.Ret (Some (reg 4))));
  check_bool "nothing folds" false (Mopt.Global_const.run_func fn);
  check_insns "head" [ Mir.Insn.Mov (r 3, reg 1); Mir.Insn.Cmp (reg 1, imm 10) ]
    (insns_of fn "head");
  check_insns "body" [ Mir.Insn.Binop (Mir.Insn.Add, r 1, reg 1, imm 1) ]
    (insns_of fn "body");
  check_insns "exit" [ Mir.Insn.Mov (r 4, reg 1) ] (insns_of fn "exit")

(* states are arrays over the registers used, not indexed by register
   id: renaming a register of every workload function to a sparse huge
   id renames the output and changes nothing else *)
let test_global_const_renaming_invariant () =
  let into = r 50_000_000 in
  let text fn = Format.asprintf "%a" Mir.Func.pp fn in
  List.iter
    (fun (prog : Mir.Program.t) ->
      List.iter
        (fun (fn : Mir.Func.t) ->
          match regs_of fn with
          | [] -> ()
          | from :: _ ->
            let plain = Mir.Clone.func fn and renamed = rename_reg ~from ~into fn in
            let what = fn.Mir.Func.name ^ " with " ^ Mir.Reg.show from ^ " renamed" in
            check_bool what
              (Mopt.Global_const.run_func plain)
              (Mopt.Global_const.run_func renamed);
            check_output what (text (rename_reg ~from ~into plain)) (text renamed))
        prog.Mir.Program.funcs)
    (workload_bases ())

(* the cleanup fixpoint's one global constant propagator: a constant
   defined in another block folds into arithmetic, the compare keeps its
   register for the sequence detector, and a second run changes nothing *)
let test_cleanup_folds_defined_constant () =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry" [ Mir.Insn.Mov (r 1, imm 3) ] (Mir.Block.Jmp "test"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"test"
       [ Mir.Insn.Binop (Mir.Insn.Add, r 2, reg 1, reg 0); Mir.Insn.Cmp (reg 1, reg 0) ]
       (Mir.Block.Br (Mir.Cond.Eq, "a", "b")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"a" [] (Mir.Block.Ret (Some (reg 2))));
  Mir.Func.add_block fn (Mir.Block.make ~label:"b" [] (Mir.Block.Ret (Some (reg 0))));
  Mopt.Cleanup.run_func fn;
  let text = Format.asprintf "%a" Mir.Func.pp fn in
  (match (Mir.Func.find_block fn "test").Mir.Block.insns with
  | [ Mir.Insn.Binop (Mir.Insn.Add, _, x, _); Mir.Insn.Cmp (c, _) ] ->
    check_bool "defined constant folded" true (x = imm 3);
    check_bool "compares keep their register" true (c = reg 1)
  | _ -> Alcotest.failf "unexpected test block:\n%s" text);
  Mopt.Cleanup.run_func fn;
  check_output "a second run changes nothing" text
    (Format.asprintf "%a" Mir.Func.pp fn)

(* the machine zero-initialises registers, but a register no path
   assigns is varying to the cleanup, not the constant 0 *)
let test_cleanup_keeps_unassigned_register () =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Binop (Mir.Insn.Add, r 2, reg 0, reg 5) ]
       (Mir.Block.Ret (Some (reg 2))));
  Mopt.Cleanup.run_func fn;
  match (Mir.Func.entry fn).Mir.Block.insns with
  | [ Mir.Insn.Binop (Mir.Insn.Add, _, _, y) ] ->
    check_bool "never-assigned register not folded to 0" true (y = reg 5)
  | _ ->
    Alcotest.failf "unexpected entry block:\n%s" (Format.asprintf "%a" Mir.Func.pp fn)

(* ------------------------------------------------------------------ *)
(* Profile-guided layout                                                *)
(* ------------------------------------------------------------------ *)

let test_profile_layout_inverts_hot_branch () =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (reg 0, imm 0) ]
       (Mir.Block.Br (Mir.Cond.Eq, "hot", "cold")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"cold" [] (Mir.Block.Ret None));
  Mir.Func.add_block fn (Mir.Block.make ~label:"hot" [] (Mir.Block.Ret None));
  let counts : Mopt.Reposition.counts = Hashtbl.create 4 in
  Hashtbl.replace counts "entry" (90, 10);
  check_bool "changed" true (Mopt.Reposition.run_func ~counts fn);
  (* the branch is inverted so the hot arm falls through *)
  (match (Mir.Func.entry fn).Mir.Block.term.Mir.Block.kind with
  | Mir.Block.Br (Mir.Cond.Ne, "cold", "hot") -> ()
  | k -> Alcotest.failf "unexpected terminator %s"
           (match k with Mir.Block.Br (c, a, b) ->
              Printf.sprintf "Br(%s,%s,%s)" (Mir.Cond.show c) a b | _ -> "?"));
  Alcotest.(check (list string)) "hot placed next" [ "entry"; "hot"; "cold" ]
    (block_labels fn)

let test_profile_layout_pipeline () =
  (* end-to-end: enabling the layout must preserve semantics and not
     increase taken branches on the training distribution *)
  let w = Workloads.Registry.find "wc" in
  let train = String.sub (Lazy.force w.Workloads.Spec.training_input) 0 5000 in
  let base_cfg = Driver.Config.default in
  let layout_cfg = { Driver.Config.default with Driver.Config.profile_layout = true } in
  let run cfg =
    Driver.Pipeline.run ~config:cfg ~name:"wc" ~source:w.Workloads.Spec.source
      ~training_input:train ~test_input:train ()
  in
  let plain = run base_cfg and laid = run layout_cfg in
  check_output "same output"
    plain.Driver.Pipeline.r_original.Driver.Pipeline.v_output
    laid.Driver.Pipeline.r_original.Driver.Pipeline.v_output;
  check_bool "taken branches do not increase" true
    (laid.Driver.Pipeline.r_reordered.Driver.Pipeline.v_counters
       .Sim.Counters.taken_branches
    <= plain.Driver.Pipeline.r_reordered.Driver.Pipeline.v_counters
         .Sim.Counters.taken_branches)

let test_cleanup_preserves_semantics () =
  (* optimization pipeline does not change behaviour on a branchy program *)
  let src = (Workloads.Registry.find "lex").Workloads.Spec.source in
  let input = Workloads.Textgen.code ~seed:5 ~chars:4000 in
  let raw = Minic.Lower.compile src in
  Mopt.Switch_lower.lower_program Mopt.Switch_lower.set_i raw;
  let raw_out = (Sim.Machine.run raw ~input).Sim.Machine.output in
  check_output "cleanup preserves output" raw_out (run_src ~input src)

(* Cleanup keeps its CFG facts in each function, never in a global
   table.  Clones of one shared set of bases are finalized on two
   domains, each job first reading its shared base's label index; the
   programs must equal a sequential run's. *)
let test_finalize_domain_safe () =
  let bases = workload_bases () in
  let finalize base =
    let reached =
      List.map
        (fun fn -> Hashtbl.length (Mir.Func.reachable fn))
        base.Mir.Program.funcs
    in
    let prog = Mir.Clone.program base in
    ignore (Mopt.Cleanup.finalize prog);
    (reached, Mir.Program.to_string prog)
  in
  let jobs = bases @ bases in
  let parallel = Driver.Pool.map ~domains:2 finalize jobs in
  let sequential = List.map finalize jobs in
  let names =
    List.map (fun (w : Workloads.Spec.t) -> w.Workloads.Spec.name)
      Workloads.Registry.all
  in
  List.iter2
    (fun name (s, p) ->
      check_bool (name ^ ": 2 domains = sequential") true (s = p))
    (names @ names)
    (List.combine sequential parallel)

(* the first [n] bytes of [text], cut after its last newline there *)
let prefix n text =
  if String.length text <= n then text
  else
    match String.rindex_from_opt text (n - 1) '\n' with
    | Some i when i > 0 -> String.sub text 0 (i + 1)
    | _ -> String.sub text 0 n

(* The finalized original and reordered programs of every (program,
   heuristic set, trained/static) configuration, on inputs cut to 512
   bytes: an MD5 of each program's text, pinned by [golden]. *)
let check_digests ~golden ~profile_layout =
  let buf = Buffer.create 16384 in
  List.iter
    (fun profile ->
      List.iter
        (fun (hs : Mopt.Switch_lower.heuristic_set) ->
          List.iter
            (fun (w : Workloads.Spec.t) ->
              let config =
                { Driver.Config.default with
                  Driver.Config.verify = true; heuristic = hs; profile;
                  profile_layout }
              in
              let r =
                Driver.Pipeline.run ~config ~name:w.Workloads.Spec.name
                  ~source:w.Workloads.Spec.source
                  ~training_input:
                    (prefix 512 (Lazy.force w.Workloads.Spec.training_input))
                  ~test_input:(prefix 512 (Lazy.force w.Workloads.Spec.test_input))
                  ()
              in
              List.iter
                (fun (tag, (v : Driver.Pipeline.version)) ->
                  Printf.bprintf buf "%s %s %s %s %s\n" w.Workloads.Spec.name
                    hs.Mopt.Switch_lower.hs_name
                    (Driver.Config.profile_name profile)
                    tag
                    (Digest.to_hex
                       (Digest.string
                          (Mir.Program.to_string v.Driver.Pipeline.v_program))))
                [ ("original", r.Driver.Pipeline.r_original);
                  ("reordered", r.Driver.Pipeline.r_reordered) ])
            Workloads.Registry.all)
        Mopt.Switch_lower.all_sets)
    [ `Trained; `Static ];
  check_golden golden (Buffer.contents buf)

let test_finalize_digests () =
  check_digests ~golden:"finalize-digests.txt" ~profile_layout:false

(* the same configurations with profile-guided layout after reordering *)
let test_profile_layout_digests () =
  check_digests ~golden:"profile-layout-digests.txt" ~profile_layout:true

let suite =
  [
    case "branch chaining: collapses jump chains" test_chain_collapse;
    case "branch chaining: survives cycles" test_chain_cycle_safe;
    case "branch chaining: equal arms become a jump" test_branch_same_targets;
    case "branch chaining: folds constant compares" test_constant_branch_fold;
    case "copy prop: folds constants" test_copyprop_constants;
    case "copy prop: algebraic identities" test_copyprop_identities;
    case "copy prop: removes self moves" test_copyprop_self_move_removed;
    case "copy prop: redefinition invalidates facts"
      test_copyprop_invalidates_on_redef;
    case "copy prop: compares keep their register" test_copyprop_keeps_compared_register;
    case "dead code: cascading removal" test_dead_code_cascade;
    case "dead code: keeps effects" test_dead_code_keeps_effects;
    case "dead code: loop-carried values survive" test_dead_code_loop_carried;
    case "unreachable blocks removed" test_unreachable_removed;
    case "reposition: fall-through chains" test_reposition_follows_fallthrough;
    case "reposition: entry stays first" test_reposition_keeps_entry_first;
    case "delay slots: fills a safe instruction" test_delay_slot_fills;
    case "delay slots: never a cmp" test_delay_slot_refuses_cmp;
    case "delay slots: never a terminator input" test_delay_slot_refuses_term_use;
    case "delay slots: fall-through jumps skipped"
      test_delay_slot_skips_fallthrough_jump;
    case "delay slots: strip restores the body" test_delay_slot_strip_roundtrip;
    case "delay slots: steal from taken target (annul)"
      test_delay_slot_steals_from_taken_target;
    case "delay slots: annulled slot squashes" test_delay_slot_annul_squashes;
    case "delay slots: jump steal without annul" test_delay_slot_jmp_steal_no_annul;
    case "delay slots: shared targets not stolen from"
      test_delay_slot_no_steal_multi_pred;
    case "delay slots: annul survives text round trip" test_annul_text_roundtrip;
    case "delay slots: a branch with equal arms is not stolen into"
      test_delay_slot_equal_arms_not_stolen;
    case "switch: heuristic set shapes (Table 2)" test_switch_shapes;
    case "switch: sparse cases avoid tables" test_switch_sparse_binary;
    case "switch: few cases stay linear" test_switch_small_linear;
    case "switch: all shapes equivalent" test_switch_equivalence;
    case "switch: empty and holey tables" test_switch_empty_and_holes;
    case "cleanup pipeline preserves semantics" test_cleanup_preserves_semantics;
    slow_case "cleanup: finalize on 2 domains = sequential"
      test_finalize_domain_safe;
    slow_case "cleanup: finalized programs match golden digests"
      test_finalize_digests;
    case "global const: flows across blocks" test_global_const_across_blocks;
    case "global const: conflicting join" test_global_const_meet;
    case "global const: agreeing join" test_global_const_agreeing_join;
    case "global const: loop-carried kill" test_global_const_loop_kill;
    case "global const: behaviour" test_global_const_behaviour;
    case "global const: back edge into the entry"
      test_global_const_back_edge_into_entry;
    case "global const: unreachable blocks keep no state"
      test_global_const_unreachable_blocks;
    case "global const: loop-carried register is varying"
      test_global_const_loop_carried_varying;
    case "global const: renaming a register to r50000000"
      test_global_const_renaming_invariant;
    case "cleanup: defined constant folds, compare keeps its register"
      test_cleanup_folds_defined_constant;
    case "cleanup: never-assigned register is not folded to 0"
      test_cleanup_keeps_unassigned_register;
    case "profile layout: hot arm falls through"
      test_profile_layout_inverts_hot_branch;
    case "profile layout: pipeline integration" test_profile_layout_pipeline;
    slow_case "profile layout: programs match golden digests"
      test_profile_layout_digests;
  ]
