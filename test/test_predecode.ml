(* Differential tests for the fast execution backend: every program
   must behave identically under the MIR-walking reference interpreter
   and the closure-compiled backend built from the pre-decoded image —
   same output, exit code, all ten counters, and the same (site, taken)
   branch event and block trace streams. *)

open Helpers

let fast_backends = [ ("compiled", `Compiled) ]

let counter_fields (c : Sim.Counters.t) =
  [
    ("insns", c.Sim.Counters.insns);
    ("cond_branches", c.Sim.Counters.cond_branches);
    ("taken_branches", c.Sim.Counters.taken_branches);
    ("jumps", c.Sim.Counters.jumps);
    ("indirect_jumps", c.Sim.Counters.indirect_jumps);
    ("calls", c.Sim.Counters.calls);
    ("returns", c.Sim.Counters.returns);
    ("loads", c.Sim.Counters.loads);
    ("stores", c.Sim.Counters.stores);
    ("nops", c.Sim.Counters.nops);
  ]

let capture ?config backend prog ~input =
  let branches = ref [] in
  let blocks = ref [] in
  let on_branch ~site ~taken = branches := (site, taken) :: !branches in
  let on_block ~func ~label = blocks := (func, label) :: !blocks in
  let result =
    Sim.Machine.run ?config ~backend ~sink:(Sim.Predictor.Sink_fun on_branch)
      ~on_block prog ~input
  in
  (result, List.rev !branches, List.rev !blocks)

let assert_backends_agree ?config ~name prog ~input =
  let r_ref, br_ref, bl_ref = capture ?config `Reference prog ~input in
  List.iter
    (fun (bname, backend) ->
      let name = name ^ " [" ^ bname ^ "]" in
      let r_img, br_img, bl_img = capture ?config backend prog ~input in
      check_output (name ^ ": output") r_ref.Sim.Machine.output
        r_img.Sim.Machine.output;
      check_int (name ^ ": exit code") r_ref.Sim.Machine.exit_code
        r_img.Sim.Machine.exit_code;
      List.iter2
        (fun (field, a) (_, b) -> check_int (name ^ ": " ^ field) a b)
        (counter_fields r_ref.Sim.Machine.counters)
        (counter_fields r_img.Sim.Machine.counters);
      Alcotest.(check (list (pair int bool)))
        (name ^ ": branch events") br_ref br_img;
      Alcotest.(check (list (pair string string)))
        (name ^ ": block trace") bl_ref bl_img)
    fast_backends

(* both backends must agree on whether a program traps and on the
   trap message *)
let trap_outcome ?config backend prog ~input =
  match Sim.Machine.run ?config ~backend prog ~input with
  | r -> Ok r.Sim.Machine.exit_code
  | exception Sim.Machine.Trap msg -> Error msg

let assert_trap_parity ?config ~name prog ~input =
  let outcome = Alcotest.(result int string) in
  let expected = trap_outcome ?config `Reference prog ~input in
  List.iter
    (fun (bname, backend) ->
      Alcotest.check outcome
        (name ^ " [" ^ bname ^ "]")
        expected
        (trap_outcome ?config backend prog ~input))
    fast_backends

(* ------------------------------------------------------------------ *)
(* Hand-built MIR corner cases                                         *)
(* ------------------------------------------------------------------ *)

let r n = Mir.Reg.of_int n
let reg n = Mir.Operand.Reg (r n)
let imm n = Mir.Operand.Imm n

let one_block_main ?(funcs = []) insns term =
  let p = Mir.Program.make () in
  let fn = Mir.Func.make ~name:"main" ~params:[] in
  Mir.Func.add_block fn (Mir.Block.make ~label:"entry" insns term);
  Mir.Program.add_func p fn;
  List.iter (Mir.Program.add_func p) funcs;
  p

let test_unknown_callee () =
  (* decodes to a trap thunk; must only fire if the call executes *)
  let p =
    one_block_main
      [ Mir.Insn.Call (Some (r 1), "nowhere", []) ]
      (Mir.Block.Ret (Some (imm 0)))
  in
  assert_trap_parity ~name:"unknown callee" p ~input:""

let test_unknown_callee_unreached () =
  let p = Mir.Program.make () in
  let fn = Mir.Func.make ~name:"main" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry" [] (Mir.Block.Jmp "done"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"dead"
       [ Mir.Insn.Call (Some (r 1), "nowhere", []) ]
       (Mir.Block.Jmp "done"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"done" [] (Mir.Block.Ret (Some (imm 7))));
  Mir.Program.add_func p fn;
  (* the dead block's bad call must not poison decoding *)
  assert_backends_agree ~name:"unreached unknown callee" p ~input:""

let test_unknown_label () =
  let p = one_block_main [] (Mir.Block.Jmp "nowhere") in
  assert_trap_parity ~name:"unknown label" p ~input:""

let test_division_by_zero () =
  let p =
    one_block_main
      [
        Mir.Insn.Mov (r 1, imm 0);
        Mir.Insn.Binop (Mir.Insn.Div, r 2, imm 5, reg 1);
      ]
      (Mir.Block.Ret (Some (reg 2)))
  in
  assert_trap_parity ~name:"division by zero" p ~input:""

let test_fuel_exhaustion () =
  let src = "int main() { while (1) {} return 0; }" in
  let p = compile_final src in
  let config = { Sim.Machine.default_config with Sim.Machine.fuel = 1000 } in
  assert_trap_parity ~config ~name:"fuel exhaustion" p ~input:""

let test_depth_exhaustion () =
  let src = "int f(int n) { return f(n + 1); } int main() { return f(0); }" in
  let p = compile_final src in
  assert_trap_parity ~name:"call depth" p ~input:""

(* the closure backend reuses one register file per call depth: [h]
   runs in the frame [g] just left at the same depth, and reads [r1],
   which it never assigns and [g] set to 12.  A fresh frame reads 0. *)
let test_reused_frame_reads_zero () =
  let p =
    Mir.Parse.program
      "function g(r0):\n\
       g.entry:\n  r1 = add r0, 5\n  ret r1\n\n\
       function h(r0):\n\
       h.entry:\n  ret r1\n\n\
       function k(r0):\n\
       k.entry:\n  r1 = call g(r0)\n  r2 = call h(0)\n  r3 = add r1, r2\n\
      \  ret r3\n\n\
       function main():\n\
       main.entry:\n  r1 = call g(7)\n  call print_int(r1)\n\
      \  r2 = call h(0)\n  call print_int(r2)\n  r3 = call k(1)\n\
      \  call print_int(r3)\n  ret 0\n"
  in
  Mir.Validate.check p;
  (* depth 1 ([g], then [h]) and depth 2 (under [k]) *)
  check_output "never-assigned registers read 0" "1206"
    (Sim.Machine.run ~backend:`Compiled p ~input:"").Sim.Machine.output;
  assert_backends_agree ~name:"reused frame" p ~input:""

(* recursion one call short of the depth limit runs; one more traps
   with the same message on every backend *)
let test_recursion_to_depth_limit () =
  let limit = Sim.Machine.default_config.Sim.Machine.max_depth in
  (* [main] runs at depth 0 and [rec(n)] reaches depth [n + 1] *)
  let src n =
    Printf.sprintf
      "int rec(int n) { if (n == 0) return 0; return rec(n - 1) + 1; }\n\
       int main() { print_int(rec(%d)); return 0; }"
      n
  in
  let deepest = compile_final (src (limit - 2)) in
  check_output "deepest allowed recursion"
    (string_of_int (limit - 2))
    (Sim.Machine.run ~backend:`Compiled deepest ~input:"").Sim.Machine.output;
  assert_backends_agree ~name:"deepest recursion" deepest ~input:"";
  let over = compile_final (src (limit - 1)) in
  Alcotest.(check (result int string))
    "one call past the limit"
    (Error "call depth exceeded in rec")
    (trap_outcome `Compiled over ~input:"");
  assert_trap_parity ~name:"one call past the limit" over ~input:""

let test_too_few_args () =
  let callee = Mir.Func.make ~name:"two" ~params:[ r 1; r 2 ] in
  Mir.Func.add_block callee
    (Mir.Block.make ~label:"entry" [] (Mir.Block.Ret (Some (reg 1))));
  let p =
    one_block_main ~funcs:[ callee ]
      [ Mir.Insn.Call (Some (r 1), "two", [ imm 1 ]) ]
      (Mir.Block.Ret (Some (reg 1)))
  in
  assert_trap_parity ~name:"too few arguments" p ~input:""

let test_builtin_wrong_arity () =
  let p =
    one_block_main
      [ Mir.Insn.Call (None, "putchar", [ imm 65; imm 66 ]) ]
      (Mir.Block.Ret (Some (imm 0)))
  in
  assert_trap_parity ~name:"builtin arity" p ~input:""

let test_out_of_bounds_load () =
  let src = "int a[4]; int main() { return a[9]; }" in
  let p = compile_final src in
  assert_trap_parity ~name:"out-of-bounds load" p ~input:""

(* ------------------------------------------------------------------ *)
(* Random dispatch programs (QCheck differential fuzzing)              *)
(* ------------------------------------------------------------------ *)

type rand_program = { source : string; heuristic : string; input : string }

let dispatch_source ~cases ~dense ~with_call =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "int g;\n";
  if with_call then
    Buffer.add_string buf "int bump(int x) { g = g + x; return g % 97; }\n";
  Buffer.add_string buf "int classify(int c) {\n  switch (c) {\n";
  List.iteri
    (fun i v ->
      Buffer.add_string buf
        (Printf.sprintf "  case %d: return %d;\n" v (i + 1)))
    cases;
  Buffer.add_string buf "  default: return 0;\n  }\n}\n";
  Buffer.add_string buf
    (Printf.sprintf
       "int main() { int c; int s = 0; while ((c = getchar()) != EOF) { s = \
        s * 31 + classify(c); %s s = s %% 65536; } print_int(s); putchar(' \
        '); print_int(g); return 0; }\n"
       (if with_call then "s = s + bump(c);" else ""));
  ignore dense;
  Buffer.contents buf

let gen_rand_program =
  QCheck.Gen.(
    let* n = int_range 1 16 in
    let* dense = bool in
    let* base = int_range 32 90 in
    let* step = if dense then return 1 else int_range 2 7 in
    let cases = List.init n (fun i -> base + (i * step)) in
    let* with_call = bool in
    let* heuristic = oneofl [ "I"; "II"; "III" ] in
    let* len = int_range 0 300 in
    let* chars = list_size (return len) (int_range 0 126) in
    let input =
      String.concat "" (List.map (fun c -> String.make 1 (Char.chr c)) chars)
    in
    return { source = dispatch_source ~cases ~dense ~with_call; heuristic; input })

let arb_rand_program =
  QCheck.make gen_rand_program ~print:(fun p ->
      Printf.sprintf "-- heuristic %s\n%s\n-- input: %S" p.heuristic p.source
        p.input)

let heuristic_of = function
  | "II" -> Mopt.Switch_lower.set_ii
  | "III" -> Mopt.Switch_lower.set_iii
  | _ -> Mopt.Switch_lower.set_i

let prop_differential =
  qcheck ~count:150 "fast backends match reference on random dispatchers"
    arb_rand_program (fun p ->
      let prog = compile_final ~heuristic:(heuristic_of p.heuristic) p.source in
      assert_backends_agree ~name:"fuzz" prog ~input:p.input;
      true)

(* ------------------------------------------------------------------ *)
(* All built-in workloads                                              *)
(* ------------------------------------------------------------------ *)

let truncate n s = if String.length s <= n then s else String.sub s 0 n

(* every workload under every heuristic set, both backends *)
let test_all_workloads () =
  List.iter
    (fun hs ->
      List.iter
        (fun (w : Workloads.Spec.t) ->
          let prog = compile_final ~heuristic:hs w.Workloads.Spec.source in
          let input = truncate 3000 (Lazy.force w.Workloads.Spec.test_input) in
          let name =
            Printf.sprintf "%s (set %s)" w.Workloads.Spec.name
              hs.Mopt.Switch_lower.hs_name
          in
          assert_backends_agree ~name prog ~input)
        Workloads.Registry.all)
    Mopt.Switch_lower.all_sets

(* a prebuilt image must agree with run on a fresh build, and one image
   must serve repeated compilations and runs unchanged *)
let test_run_image_reuse () =
  let prog = compile_final "int main() { print_int(42); return 3; }" in
  let image = Sim.Image.build prog in
  let run () = Sim.Compiled.exec (Sim.Compiled.compile image) ~input:"" in
  let a = run () in
  let b = run () in
  let c = Sim.Machine.run prog ~input:"" in
  check_output "first" c.Sim.Machine.output a.Sim.Runtime.output;
  check_output "second (image reused)" c.Sim.Machine.output
    b.Sim.Runtime.output;
  check_int "exit" c.Sim.Machine.exit_code b.Sim.Runtime.exit_code

(* [Machine.run ~image] runs the caller's image on the fast engines
   instead of lowering the program again; the reference walks the MIR
   and ignores it.  An image of another program makes that visible. *)
let test_machine_run_given_image () =
  let prog = compile_final "int main() { return 3; }" in
  let image = Sim.Image.build (compile_final "int main() { return 7; }") in
  let exit_code backend =
    (Sim.Machine.run ~backend ~image prog ~input:"").Sim.Machine.exit_code
  in
  check_int "reference ignores the image" 3 (exit_code `Reference);
  check_int "compiled runs the image" 7 (exit_code `Compiled);
  if Sim.Native.available () then
    check_int "native runs the image" 7 (exit_code `Native)

(* a compiled program holds no run state: compile once, execute many
   times, each run starts from scratch *)
let test_compiled_reuse () =
  let w = Workloads.Registry.find "wc" in
  let prog = compile_final w.Workloads.Spec.source in
  let input = truncate 2000 (Lazy.force w.Workloads.Spec.test_input) in
  let compiled = Sim.Compiled.compile (Sim.Image.build prog) in
  let a = Sim.Compiled.exec compiled ~input in
  let b = Sim.Compiled.exec compiled ~input in
  let c = Sim.Machine.run ~backend:`Reference prog ~input in
  check_output "first" c.Sim.Machine.output a.Sim.Runtime.output;
  check_output "second (compiled reused)" c.Sim.Machine.output
    b.Sim.Runtime.output;
  check_int "insns first" c.Sim.Machine.counters.Sim.Counters.insns
    a.Sim.Runtime.counters.Sim.Counters.insns;
  check_int "insns second" c.Sim.Machine.counters.Sim.Counters.insns
    b.Sim.Runtime.counters.Sim.Counters.insns

(* the predictor bank driven through the compiled backend's fused sink
   must count exactly what the old per-branch closure dispatch over an
   assoc list of predictors counted *)
let test_bank_equivalence () =
  let w = Workloads.Registry.find "grep" in
  let prog = compile_final w.Workloads.Spec.source in
  let input = truncate 3000 (Lazy.force w.Workloads.Spec.test_input) in
  let keys = Driver.Config.paper_predictors in
  (* old protocol: an assoc list of predictors behind a [Sink_fun]
     closure, List.iter-ed for every event, on the reference interpreter
     so the two protocols also run on two different engines *)
  let preds =
    List.map
      (fun (h, c, e) ->
        ( (h, c, e),
          Sim.Predictor.make ~history_bits:h ~counter_bits:c ~entries:e ))
      keys
  in
  let on_branch ~site ~taken =
    List.iter (fun (_, p) -> Sim.Predictor.access p ~site ~taken) preds
  in
  let _ =
    Sim.Machine.run ~backend:`Reference ~sink:(Sim.Predictor.Sink_fun on_branch)
      prog ~input
  in
  (* new protocol: a bank wired into the compiled branch terminators *)
  let bank = Sim.Predictor.bank keys in
  let compiled = Sim.Compiled.compile (Sim.Image.build prog) in
  let _ = Sim.Compiled.exec ~sink:(Sim.Predictor.Sink_bank bank) compiled ~input in
  check_int "bank size" (List.length keys) (Sim.Predictor.bank_size bank);
  List.iter2
    (fun (key, p) (key', mis) ->
      Alcotest.(check (triple int int int)) "key order" key key';
      check_int "mispredicts" (Sim.Predictor.mispredicts p) mis)
    preds
    (Sim.Predictor.bank_mispredicts bank);
  List.iter2
    (fun (_, p) (_, lk) -> check_int "lookups" (Sim.Predictor.lookups p) lk)
    preds
    (Sim.Predictor.bank_lookups bank);
  (* a reset bank re-counts from scratch *)
  Sim.Predictor.bank_reset bank;
  let _ = Sim.Compiled.exec ~sink:(Sim.Predictor.Sink_bank bank) compiled ~input in
  List.iter2
    (fun (_, p) (_, mis) -> check_int "mispredicts after reset"
        (Sim.Predictor.mispredicts p) mis)
    preds
    (Sim.Predictor.bank_mispredicts bank)

(* The bank buffers its events and folds each (0,1,E) predictor with a
   (0,2,E) partner in one pass; every read must still see exactly what
   separate predictors fed one event at a time see, over any key list
   (duplicates, partnerless keys, history keys, any order). *)
type bank_op = Read | Reset

let bank_keys = Driver.Config.paper_predictors @ [ (4, 2, 64); (2, 1, 32) ]

let print_bank_run (seed, len, ops) =
  Printf.sprintf "seed %d, %d events, ops [%s]" seed len
    (String.concat "; "
       (List.map
          (fun (at, op) ->
            Printf.sprintf "%s@%d"
              (match op with Read -> "read" | Reset -> "reset")
              at)
          ops))

let gen_bank_run =
  let open QCheck2.Gen in
  let* seed = nat in
  let* len = int_range 0 (3 * 8192) in
  let+ ops =
    list_size (int_range 0 8)
      (pair (int_bound len) (oneofl [ Read; Reset ]))
  in
  (seed, len, List.stable_sort (fun (a, _) (b, _) -> compare a b) ops)

let gen_bank_keys =
  let open QCheck2.Gen in
  frequency
    [
      (1, return bank_keys);
      ( 3,
        list_size (int_range 1 10)
          (oneofl
             (Driver.Config.paper_predictors
             @ [ (4, 2, 64); (2, 1, 32); (1, 2, 32); (3, 1, 128) ])) );
    ]

let print_keys keys =
  String.concat "; "
    (List.map (fun (h, c, e) -> Printf.sprintf "(%d,%d,%d)" h c e) keys)

let prop_bank_matches_oracle =
  qcheck2 ~count:80
    ~print:(fun (keys, run) ->
      Printf.sprintf "keys [%s], %s" (print_keys keys) (print_bank_run run))
    "bank equals separate predictors under interleaved reads"
    (QCheck2.Gen.pair gen_bank_keys gen_bank_run)
    (fun (keys, (seed, len, ops)) ->
      let oracle =
        Array.of_list
          (List.map
             (fun (h, c, e) ->
               Sim.Predictor.make ~history_bits:h ~counter_bits:c ~entries:e)
             keys)
      in
      let bank = Sim.Predictor.bank keys in
      let expect tally = List.mapi (fun i k -> (k, tally oracle.(i))) keys in
      let same () =
        Sim.Predictor.bank_mispredicts bank = expect Sim.Predictor.mispredicts
        && Sim.Predictor.bank_lookups bank = expect Sim.Predictor.lookups
      in
      let ok = ref true in
      let apply = function
        | Read -> ok := !ok && same ()
        | Reset ->
          Sim.Predictor.bank_reset bank;
          Array.iter Sim.Predictor.reset oracle
      in
      let ops = ref ops in
      for i = 0 to len do
        let rec due () =
          match !ops with
          | (at, op) :: rest when at = i ->
            apply op;
            ops := rest;
            due ()
          | _ -> ()
        in
        due ();
        if i < len then begin
          (* 300 sites: tables below 512 entries alias *)
          let site = mix seed i mod 300 in
          let taken = mix (seed + 1) (i * 7) land 4 <> 0 in
          Sim.Predictor.bank_access bank ~site ~taken;
          Array.iter (fun p -> Sim.Predictor.access p ~site ~taken) oracle
        end
      done;
      !ok && same ())

(* a run stopped by fuel leaves a partly filled buffer: on every
   engine, the tallies read after the trap must still equal separate
   predictors fed the same events one at a time *)
let test_bank_after_fuel_trap () =
  let w = Workloads.Registry.find "grep" in
  let prog = compile_final w.Workloads.Spec.source in
  let input = Lazy.force w.Workloads.Spec.test_input in
  let config = { Sim.Machine.default_config with Sim.Machine.fuel = 300_000 } in
  let oracle =
    List.map
      (fun (h, c, e) ->
        Sim.Predictor.make ~history_bits:h ~counter_bits:c ~entries:e)
      bank_keys
  in
  let image = Sim.Image.build prog in
  let run backend sink =
    match Sim.Machine.run ~config ~sink ~image ~backend prog ~input with
    | _ -> Alcotest.fail "expected the run to run out of fuel"
    | exception Sim.Machine.Trap _ -> ()
  in
  run `Reference
    (Sim.Predictor.Sink_fun
       (fun ~site ~taken ->
         List.iter (fun p -> Sim.Predictor.access p ~site ~taken) oracle));
  let events = Sim.Predictor.lookups (List.hd oracle) in
  check_bool "several buffers and a partial one" true
    (events > 2 * 8192 && events mod 8192 <> 0);
  (* every engine leaves its pending events in the bank at the trap *)
  List.iter
    (fun backend ->
      let name = Sim.Machine.backend_name backend in
      let bank = Sim.Predictor.bank bank_keys in
      run backend (Sim.Predictor.Sink_bank bank);
      check_bool (name ^ ": mispredicts equal the oracle") true
        (Sim.Predictor.bank_mispredicts bank
        = List.map2
            (fun k p -> (k, Sim.Predictor.mispredicts p))
            bank_keys oracle);
      check_bool (name ^ ": lookups equal the oracle") true
        (Sim.Predictor.bank_lookups bank
        = List.map2 (fun k p -> (k, Sim.Predictor.lookups p)) bank_keys oracle))
    (`Reference :: `Compiled
    :: (if Sim.Native.available () then [ `Native ] else []))

(* Every fuel value from 1 to a range-test program's full instruction
   count stops it at a different instruction, fused compare-and-branch
   blocks included: the trap, the events delivered before it and the
   predictor tallies must equal the reference's at each. *)
let test_fuel_sweep_range_tests () =
  let w = Workloads.Registry.find "wc" in
  let input = "ab cd\n\tef  g\nh i\n" in
  let r =
    reorder_pipeline ~training_input:input ~test_input:input
      w.Workloads.Spec.source
  in
  let prog = r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_program in
  let image = Sim.Image.build prog in
  (* the sweep must cover the fused block shape *)
  let fused =
    Array.exists
      (fun (f : Sim.Image.pfunc) ->
        Array.exists
          (fun (b : Sim.Image.pblock) ->
            match b.Sim.Image.pb_insns, b.Sim.Image.pb_term, b.Sim.Image.pb_delay with
            | [| Sim.Image.Pcmp (Sim.Image.Preg _, Sim.Image.Pimm _) |],
              Sim.Image.Pbr _, None -> true
            | _ -> false)
          f.Sim.Image.pf_blocks)
      image.Sim.Image.funcs
  in
  check_bool "program has compare-and-branch blocks" true fused;
  let full =
    (Sim.Machine.run ~image prog ~input).Sim.Machine.counters.Sim.Counters.insns
  in
  let run backend fuel =
    let config = { Sim.Machine.default_config with Sim.Machine.fuel } in
    let events = ref [] in
    let outcome sink =
      match Sim.Machine.run ~config ~sink ~image ~backend prog ~input with
      | res -> Ok res.Sim.Machine.exit_code
      | exception Sim.Machine.Trap msg -> Error msg
    in
    let o =
      outcome
        (Sim.Predictor.Sink_fun
           (fun ~site ~taken -> events := (site, taken) :: !events))
    in
    let bank = Sim.Predictor.bank Driver.Config.paper_predictors in
    ignore (outcome (Sim.Predictor.Sink_bank bank));
    (o, List.rev !events, Sim.Predictor.bank_mispredicts bank,
     Sim.Predictor.bank_lookups bank)
  in
  for fuel = 1 to full do
    let ro, rev, rmis, rlk = run `Reference fuel in
    let co, cev, cmis, clk = run `Compiled fuel in
    let name what = Printf.sprintf "fuel %d: %s" fuel what in
    Alcotest.(check (result int string)) (name "outcome") ro co;
    Alcotest.(check (list (pair int bool))) (name "events") rev cev;
    check_bool (name "mispredicts") true (rmis = cmis);
    check_bool (name "lookups") true (rlk = clk)
  done;
  match run `Reference full with
  | Ok _, _, _, _ -> ()
  | Error msg, _, _, _ -> Alcotest.failf "full fuel still traps: %s" msg

(* A served generation is the instrumented clone reordered, so its
   sequence heads keep their range probes.  With and without a profile,
   the compiled backend must give the reference's output, exit code,
   ten counters, branch events and block trace, and with one the same
   range counts. *)
let test_probed_heads_agree () =
  let w = Workloads.Registry.find "hyphen" in
  let input = String.sub (Lazy.force w.Workloads.Spec.test_input) 0 500 in
  let config = Driver.Config.default in
  let base = Driver.Pipeline.compile_base config w.Workloads.Spec.source in
  let seqs = Driver.Pipeline.detect_seqs config base in
  let clone, table = Driver.Pipeline.instrument config base seqs in
  ignore (Sim.Machine.run ~profile:table clone ~input);
  let prog, _ =
    Driver.Pipeline.reoptimize config ~name:"hyphen" clone seqs table
  in
  let probed_heads =
    Array.exists
      (fun (f : Sim.Image.pfunc) ->
        Array.exists
          (fun (b : Sim.Image.pblock) ->
            Array.exists
              (function Sim.Image.Pprofile_range _ -> true | _ -> false)
              b.Sim.Image.pb_insns)
          f.Sim.Image.pf_blocks)
      (Sim.Image.build prog).Sim.Image.funcs
  in
  check_bool "program has probed heads" true probed_heads;
  List.iter
    (fun profiled ->
      let run backend =
        let profile =
          if profiled then Some (Sim.Profile.copy_shape table) else None
        in
        let branches = ref [] and blocks = ref [] in
        let r =
          Sim.Machine.run ?profile ~backend
            ~sink:
              (Sim.Predictor.Sink_fun
                 (fun ~site ~taken -> branches := (site, taken) :: !branches))
            ~on_block:(fun ~func ~label -> blocks := (func, label) :: !blocks)
            prog ~input
        in
        ( (r.Sim.Machine.output, r.Sim.Machine.exit_code,
           counter_fields r.Sim.Machine.counters),
          List.rev !branches,
          List.rev !blocks,
          Option.map Sim.Profile.counters profile )
      in
      let name what =
        Printf.sprintf "%s, %s" what
          (if profiled then "profiled" else "unprofiled")
      in
      let r_obs, r_br, r_bl, r_counts = run `Reference in
      let c_obs, c_br, c_bl, c_counts = run `Compiled in
      check_bool (name "output, exit code and counters") true (r_obs = c_obs);
      Alcotest.(check (list (pair int bool))) (name "branch events") r_br c_br;
      Alcotest.(check (list (pair string string))) (name "block trace") r_bl c_bl;
      check_bool (name "range counts") true (r_counts = c_counts);
      if profiled then
        check_bool "the probes recorded" true
          (match c_counts with
          | Some (ranges, _) -> List.exists (fun (_, _, n) -> n > 0) ranges
          | None -> false))
    [ false; true ]

(* Machine.sites/site_of are now derived from the pre-decoded image;
   the numbering must round-trip and match the image's own tables *)
let test_sites_roundtrip () =
  let w = Workloads.Registry.find "sort" in
  let prog = compile_final w.Workloads.Spec.source in
  let sites = Sim.Machine.sites prog in
  let img_sites = Sim.Image.sites (Sim.Image.build prog) in
  check_int "same count" (Array.length sites) (Array.length img_sites);
  Array.iteri
    (fun i (func, label) ->
      let func', label' = img_sites.(i) in
      check_output "func" func func';
      check_output "label" label label';
      check_int "site_of roundtrip" i
        (Sim.Machine.site_of prog ~func ~label))
    sites

let suite =
  [
    case "unknown callee traps identically" test_unknown_callee;
    case "unreached unknown callee is harmless" test_unknown_callee_unreached;
    case "unknown label traps identically" test_unknown_label;
    case "division by zero" test_division_by_zero;
    case "fuel exhaustion" test_fuel_exhaustion;
    case "call depth exhaustion" test_depth_exhaustion;
    case "too few call arguments" test_too_few_args;
    case "a reused frame reads never-assigned registers as 0"
      test_reused_frame_reads_zero;
    case "recursion to the depth limit" test_recursion_to_depth_limit;
    case "builtin arity mismatch" test_builtin_wrong_arity;
    case "out-of-bounds load" test_out_of_bounds_load;
    case "image reuse across runs" test_run_image_reuse;
    case "compiled program reuse across runs" test_compiled_reuse;
    case "Machine.run runs a given image on the fast engines"
      test_machine_run_given_image;
    case "predictor bank equals closure dispatch" test_bank_equivalence;
    prop_bank_matches_oracle;
    case "bank after a fuel trap equals the oracle" test_bank_after_fuel_trap;
    case "fuel sweep over compare-and-branch blocks" test_fuel_sweep_range_tests;
    case "probed sequence heads agree, with and without a profile"
      test_probed_heads_agree;
    case "site numbering round-trips through the image" test_sites_roundtrip;
    prop_differential;
    slow_case "all workloads agree across backends" test_all_workloads;
  ]
