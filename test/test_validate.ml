(* Negative tests for Mir.Validate: each malformed function must be
   rejected with the expected diagnostic.  The rest of the suite only
   ever exercises the validator on well-formed programs, so without
   these a validator that accepted everything would go unnoticed — and
   the translation-validation layer (Check.Verify) leans on it. *)

open Helpers

let r0 = Mir.Reg.of_int 0
let reg r = Mir.Operand.Reg r
let imm k = Mir.Operand.Imm k
let cmp0 = Mir.Insn.Cmp (reg r0, imm 0)

let func_of blocks =
  let fn = Mir.Func.make ~name:"t" ~params:[ r0 ] in
  List.iter (Mir.Func.add_block fn) blocks;
  fn

let ret = Mir.Block.make ~label:"done" [] (Mir.Block.Ret None)

let duplicate_label () =
  expect_invalid ~substr:"duplicate label"
    (Mir.Validate.func
       (func_of
          [
            Mir.Block.make ~label:"a" [] (Mir.Block.Jmp "done");
            Mir.Block.make ~label:"a" [] (Mir.Block.Jmp "done");
            ret;
          ]))

let undefined_branch_target () =
  expect_invalid ~substr:"undefined label"
    (Mir.Validate.func
       (func_of
          [
            Mir.Block.make ~label:"a" [ cmp0 ]
              (Mir.Block.Br (Mir.Cond.Eq, "nowhere", "done"));
            ret;
          ]))

let undefined_jmp_target () =
  expect_invalid ~substr:"undefined label"
    (Mir.Validate.func
       (func_of [ Mir.Block.make ~label:"a" [] (Mir.Block.Jmp "nowhere") ]))

let undefined_switch_case () =
  expect_invalid ~substr:"undefined label"
    (Mir.Validate.func ~allow_switch:true
       (func_of
          [
            Mir.Block.make ~label:"a" []
              (Mir.Block.Switch (r0, [ (1, "nowhere") ], "done"));
            ret;
          ]))

let unlowered_switch () =
  (* without [allow_switch] even a well-targeted switch is malformed:
     nothing downstream of Mopt.Switch_lower can execute one *)
  expect_invalid ~substr:"unlowered switch"
    (Mir.Validate.func
       (func_of
          [
            Mir.Block.make ~label:"a" []
              (Mir.Block.Switch (r0, [ (1, "done") ], "done"));
            ret;
          ]))

let undefined_jump_table () =
  expect_invalid ~substr:"undefined jump table"
    (Mir.Validate.func
       (func_of [ Mir.Block.make ~label:"a" [] (Mir.Block.Jtab (r0, 0)); ret ]))

let jump_table_bad_entry () =
  let fn =
    func_of [ Mir.Block.make ~label:"a" [] (Mir.Block.Jtab (r0, 0)); ret ]
  in
  fn.Mir.Func.jtables <- [ [| "done"; "nowhere" |] ];
  expect_invalid ~substr:"undefined label" (Mir.Validate.func fn)

let no_blocks () =
  (* the explicit-terminator analog of running off the end of a function:
     there is no block to fall into, so an empty function is the one way
     to "fall off the end" in this IR, and it must be rejected *)
  expect_invalid ~substr:"no blocks"
    (Mir.Validate.func (Mir.Func.make ~name:"t" ~params:[ r0 ]))

let cmp_in_delay_slot () =
  let b = Mir.Block.make ~label:"a" [] (Mir.Block.Jmp "done") in
  b.Mir.Block.term.Mir.Block.delay <- Some cmp0;
  expect_invalid ~substr:"delay slot contains a cmp"
    (Mir.Validate.func (func_of [ b; ret ]))

let call_in_delay_slot () =
  let b = Mir.Block.make ~label:"a" [] (Mir.Block.Jmp "done") in
  b.Mir.Block.term.Mir.Block.delay <-
    Some (Mir.Insn.Call (None, "putchar", [ imm 33 ]));
  expect_invalid ~substr:"delay slot contains a call"
    (Mir.Validate.func (func_of [ b; ret ]))

let branch_without_cmp () =
  expect_invalid ~substr:"not dominated by a cmp"
    (Mir.Validate.func
       (func_of
          [
            Mir.Block.make ~label:"a" []
              (Mir.Block.Br (Mir.Cond.Eq, "done", "b"));
            Mir.Block.make ~label:"b" [] (Mir.Block.Jmp "done");
            ret;
          ]))

let use_before_def () =
  let r9 = Mir.Reg.of_int 9 in
  expect_invalid ~substr:"read before written"
    (Mir.Validate.func ~check_init:true
       (func_of
          [
            Mir.Block.make ~label:"a"
              [ Mir.Insn.Binop (Mir.Insn.Add, r9, reg r9, imm 1) ]
              (Mir.Block.Ret (Some (reg r9)));
          ]))

let well_formed_accepted () =
  (* positive control: the same shapes, assembled correctly, validate *)
  let fn =
    func_of
      [
        Mir.Block.make ~label:"a" [ cmp0 ]
          (Mir.Block.Br (Mir.Cond.Eq, "done", "b"));
        Mir.Block.make ~label:"b" [] (Mir.Block.Jtab (r0, 0));
        ret;
      ]
  in
  fn.Mir.Func.jtables <- [ [| "done" |] ];
  match Mir.Validate.func ~check_init:true fn with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "unexpected: %s" (String.concat " | " msgs)

let program_check_raises () =
  let p = Mir.Program.make () in
  Mir.Program.add_func p
    (func_of [ Mir.Block.make ~label:"a" [] (Mir.Block.Jmp "nowhere") ]);
  match Mir.Validate.check p with
  | () -> Alcotest.fail "expected Validate.check to raise"
  | exception Failure msg ->
    check_bool "message names the label" true
      (contains_substring msg "nowhere")

(* a one-block program carrying [g]: the function is well formed, so
   any error is about the global *)
let program_with_global gname size init =
  let p = Mir.Program.make () in
  Mir.Program.add_func p (func_of [ ret ]);
  Mir.Program.add_global p { Mir.Program.gname; size; init };
  p

let negative_global_size () =
  expect_invalid ~substr:"negative size"
    (Mir.Validate.program (program_with_global "g" (-3) None))

let global_init_too_long () =
  expect_invalid ~substr:"exceeds size"
    (Mir.Validate.program (program_with_global "g" 1 (Some [| 1; 2; 3 |])))

let empty_global_accepted () =
  (* positive control: a zero-sized global and an initializer exactly
     filling its global are fine *)
  let p = program_with_global "g" 0 None in
  Mir.Program.add_global p
    { Mir.Program.gname = "h"; size = 2; init = Some [| 1; 2 |] };
  match Mir.Validate.program p with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "unexpected: %s" (String.concat " | " msgs)

let suite =
  [
    case "duplicate label rejected" duplicate_label;
    case "undefined branch target rejected" undefined_branch_target;
    case "undefined jmp target rejected" undefined_jmp_target;
    case "undefined switch case target rejected" undefined_switch_case;
    case "unlowered switch rejected" unlowered_switch;
    case "undefined jump table rejected" undefined_jump_table;
    case "jump table entry to undefined label rejected" jump_table_bad_entry;
    case "function with no blocks rejected" no_blocks;
    case "cmp in delay slot rejected" cmp_in_delay_slot;
    case "call in delay slot rejected" call_in_delay_slot;
    case "branch not dominated by a cmp rejected" branch_without_cmp;
    case "register read before written rejected" use_before_def;
    case "well-formed function accepted" well_formed_accepted;
    case "Validate.check raises with the message" program_check_raises;
    case "negative global size rejected" negative_global_size;
    case "global initializer longer than its size rejected"
      global_init_too_long;
    case "zero-sized global accepted" empty_global_accepted;
  ]
