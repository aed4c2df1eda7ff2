(* Simulator, predictor, cycle model and profile-runtime tests. *)

open Helpers

let r n = Mir.Reg.of_int n
let reg n = Mir.Operand.Reg (r n)
let imm n = Mir.Operand.Imm n

(* ------------------------------------------------------------------ *)
(* Exact dynamic instruction accounting                                *)
(* ------------------------------------------------------------------ *)

let straight_line_prog insns =
  let p = Mir.Program.make () in
  let fn = Mir.Func.make ~name:"main" ~params:[] in
  Mir.Func.add_block fn (Mir.Block.make ~label:"entry" insns (Mir.Block.Ret None));
  Mir.Program.add_func p fn;
  p

let test_count_straight_line () =
  let p = straight_line_prog [ Mir.Insn.Mov (r 1, imm 1); Mir.Insn.Mov (r 2, imm 2) ] in
  let result = run_prog p in
  (* 2 movs + ret + its nop delay slot *)
  check_int "insns" 4 result.Sim.Machine.counters.Sim.Counters.insns;
  check_int "nops" 1 result.Sim.Machine.counters.Sim.Counters.nops;
  check_int "returns" 1 result.Sim.Machine.counters.Sim.Counters.returns

let branch_prog ~taken =
  (* entry: cmp; br taken -> t | f (f is laid out next); t/f: ret *)
  let p = Mir.Program.make () in
  let fn = Mir.Func.make ~name:"main" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (imm (if taken then 0 else 1), imm 0) ]
       (Mir.Block.Br (Mir.Cond.Eq, "t", "f")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"f" [] (Mir.Block.Ret (Some (imm 0))));
  Mir.Func.add_block fn (Mir.Block.make ~label:"t" [] (Mir.Block.Ret (Some (imm 1))));
  Mir.Program.add_func p fn;
  p

let test_count_branch_fallthrough () =
  let result = run_prog (branch_prog ~taken:false) in
  (* cmp + br + slot nop + ret + slot nop: not-taken falls through free *)
  check_int "insns" 5 result.Sim.Machine.counters.Sim.Counters.insns;
  check_int "jumps" 0 result.Sim.Machine.counters.Sim.Counters.jumps;
  check_int "exit code" 0 result.Sim.Machine.exit_code

let test_count_branch_taken () =
  let result = run_prog (branch_prog ~taken:true) in
  (* same cost on the taken side: branch + slot reach t directly *)
  check_int "insns" 5 result.Sim.Machine.counters.Sim.Counters.insns;
  check_int "taken" 1 result.Sim.Machine.counters.Sim.Counters.taken_branches;
  check_int "exit code" 1 result.Sim.Machine.exit_code

let test_count_layout_jump () =
  (* a not-taken branch whose fall-through is NOT next pays jump + nop *)
  let p = Mir.Program.make () in
  let fn = Mir.Func.make ~name:"main" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (imm 1, imm 0) ]
       (Mir.Block.Br (Mir.Cond.Eq, "t", "f")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"t" [] (Mir.Block.Ret (Some (imm 1))));
  Mir.Func.add_block fn (Mir.Block.make ~label:"f" [] (Mir.Block.Ret (Some (imm 0))));
  Mir.Program.add_func p fn;
  let result = run_prog p in
  (* cmp + br + nop + (jmp + nop) + ret + nop *)
  check_int "insns" 7 result.Sim.Machine.counters.Sim.Counters.insns;
  check_int "jumps" 1 result.Sim.Machine.counters.Sim.Counters.jumps

let test_count_filled_delay_slot () =
  let p = branch_prog ~taken:true in
  let fn = Mir.Program.find_func p "main" in
  let entry = Mir.Func.entry fn in
  entry.Mir.Block.term <-
    { entry.Mir.Block.term with Mir.Block.delay = Some (Mir.Insn.Mov (r 9, imm 5)) };
  let result = run_prog p in
  (* cmp + br + filled slot (mov) + ret + nop *)
  check_int "insns" 5 result.Sim.Machine.counters.Sim.Counters.insns;
  check_int "only the ret slot is a nop" 1
    result.Sim.Machine.counters.Sim.Counters.nops

let test_profile_insns_are_free () =
  let p =
    straight_line_prog
      [ Mir.Insn.Mov (r 1, imm 1); Mir.Insn.Profile_range (0, r 1) ]
  in
  let result = run_prog p in
  check_int "profile pseudo not counted" 3
    result.Sim.Machine.counters.Sim.Counters.insns

(* ------------------------------------------------------------------ *)
(* Traps                                                               *)
(* ------------------------------------------------------------------ *)

let test_trap_div_by_zero () =
  expect_trap (fun () ->
      run_src "int main() { int x = 0; print_int(1 / x); return 0; }")

let test_trap_oob () =
  expect_trap (fun () ->
      run_src "int a[4]; int main() { return a[9]; }");
  expect_trap (fun () ->
      run_src "int a[4]; int main() { a[-1] = 0; return 0; }")

let test_trap_fuel () =
  let prog = compile_final "int main() { while (1) { } return 0; }" in
  match
    Sim.Machine.run
      ~config:{ Sim.Machine.default_config with Sim.Machine.fuel = 1000 }
      prog ~input:""
  with
  | exception Sim.Machine.Trap _ -> ()
  | _ -> Alcotest.fail "expected fuel trap"

(* a deadline that passed before the run started cancels every backend,
   even on a run far shorter than the watchdog's 2048-poll clock window *)
let test_watchdog_short_run () =
  let prog = compile_final "int main() { print_int(7); return 0; }" in
  let backends =
    [ `Reference; `Compiled ] @ if Sim.Native.available () then [ `Native ] else []
  in
  List.iter
    (fun backend ->
      let cancel = Sim.Runtime.watchdog ~ms:1 in
      Unix.sleepf 0.01;
      match
        Sim.Machine.run ~backend
          ~config:{ Sim.Machine.default_config with Sim.Machine.cancel = Some cancel }
          prog ~input:""
      with
      | exception Sim.Machine.Cancelled -> ()
      | _ ->
        Alcotest.failf "%s: a run past its deadline was not cancelled"
          (Sim.Machine.backend_name backend))
    backends

let test_trap_depth () =
  let prog =
    compile_final "int f(int n) { return f(n + 1); } int main() { return f(0); }"
  in
  expect_trap (fun () -> Sim.Machine.run prog ~input:"")

let test_trap_unknown_function () =
  let p = straight_line_prog [ Mir.Insn.Call (None, "mystery", []) ] in
  expect_trap (fun () -> run_prog p)

let test_trap_unlowered_switch () =
  let p = Mir.Program.make () in
  let fn = Mir.Func.make ~name:"main" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Mov (r 0, imm 1) ]
       (Mir.Block.Switch (r 0, [ (1, "a") ], "a")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"a" [] (Mir.Block.Ret None));
  Mir.Program.add_func p fn;
  expect_trap (fun () -> run_prog p)

(* ------------------------------------------------------------------ *)
(* Branch event stream / sites                                         *)
(* ------------------------------------------------------------------ *)

let test_on_block_trace () =
  let prog =
    compile_final
      "int f(int x) { return x + 1; } int main() { return f(2); }"
  in
  let blocks = ref [] in
  let _ =
    Sim.Machine.run
      ~on_block:(fun ~func ~label -> blocks := (func, label) :: !blocks)
      prog ~input:""
  in
  let trace = List.rev !blocks in
  check_bool "starts in main" true
    (match trace with ("main", _) :: _ -> true | _ -> false);
  check_bool "visits f" true (List.exists (fun (f, _) -> f = "f") trace)

let test_on_branch_events () =
  let prog =
    compile_final
      "int main() { int i; for (i = 0; i < 10; i++) { } return 0; }"
  in
  let events = ref [] in
  let _ =
    Sim.Machine.run
      ~sink:(Sim.Predictor.Sink_fun (fun ~site ~taken ->
          events := (site, taken) :: !events))
      prog ~input:""
  in
  let total = List.length !events in
  check_int "one event per dynamic branch" 11 total;
  (* all events come from the same site (the loop condition) *)
  let sites = List.sort_uniq compare (List.map fst !events) in
  check_int "single site" 1 (List.length sites)

(* ------------------------------------------------------------------ *)
(* Predictors                                                          *)
(* ------------------------------------------------------------------ *)

let test_predictor_always_taken () =
  let p = Sim.Predictor.make ~history_bits:0 ~counter_bits:2 ~entries:64 in
  for _ = 1 to 100 do
    Sim.Predictor.access p ~site:7 ~taken:true
  done;
  (* initial weakly-not-taken state: first access mispredicts, then the
     counter saturates taken *)
  check_int "one miss then correct" 1 (Sim.Predictor.mispredicts p);
  check_int "lookups" 100 (Sim.Predictor.lookups p)

let test_predictor_alternating () =
  (* a strict alternation defeats a 1-bit counter completely after warmup *)
  let p1 = Sim.Predictor.make ~history_bits:0 ~counter_bits:1 ~entries:16 in
  for i = 1 to 100 do
    Sim.Predictor.access p1 ~site:3 ~taken:(i mod 2 = 0)
  done;
  check_bool "1-bit mispredicts nearly always" true
    (Sim.Predictor.mispredicts p1 >= 98)

let test_predictor_two_bit_tolerates_one_off () =
  (* T T T N T T T N ... : 2-bit counters mispredict only the Ns *)
  let p = Sim.Predictor.make ~history_bits:0 ~counter_bits:2 ~entries:16 in
  for i = 1 to 100 do
    Sim.Predictor.access p ~site:3 ~taken:(i mod 4 <> 0)
  done;
  let m = Sim.Predictor.mispredicts p in
  check_bool "about 25 misses" true (m >= 25 && m <= 27)

let test_predictor_aliasing () =
  (* two sites with opposite behaviour colliding in a 1-entry table *)
  let p = Sim.Predictor.make ~history_bits:0 ~counter_bits:2 ~entries:1 in
  for _ = 1 to 50 do
    Sim.Predictor.access p ~site:0 ~taken:true;
    Sim.Predictor.access p ~site:1 ~taken:false
  done;
  let aliased = Sim.Predictor.mispredicts p in
  let q = Sim.Predictor.make ~history_bits:0 ~counter_bits:2 ~entries:64 in
  for _ = 1 to 50 do
    Sim.Predictor.access q ~site:0 ~taken:true;
    Sim.Predictor.access q ~site:1 ~taken:false
  done;
  check_bool "separate entries beat aliasing" true
    (Sim.Predictor.mispredicts q < aliased)

let test_predictor_history () =
  (* with history bits, an alternating pattern becomes predictable *)
  let p = Sim.Predictor.make ~history_bits:2 ~counter_bits:2 ~entries:64 in
  for i = 1 to 200 do
    Sim.Predictor.access p ~site:5 ~taken:(i mod 2 = 0)
  done;
  check_bool "history learns alternation" true (Sim.Predictor.mispredicts p < 20)

let test_predictor_reset_and_describe () =
  let p = Sim.Predictor.make ~history_bits:0 ~counter_bits:2 ~entries:2048 in
  Sim.Predictor.access p ~site:1 ~taken:true;
  Sim.Predictor.reset p;
  check_int "reset lookups" 0 (Sim.Predictor.lookups p);
  check_output "describe" "(0,2)x2048" (Sim.Predictor.describe p);
  match Sim.Predictor.make ~history_bits:0 ~counter_bits:2 ~entries:100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-power-of-two entries must be rejected"

(* ------------------------------------------------------------------ *)
(* Cycle model                                                         *)
(* ------------------------------------------------------------------ *)

let test_cycle_model () =
  let c = Sim.Counters.make () in
  c.Sim.Counters.insns <- 1000;
  c.Sim.Counters.indirect_jumps <- 10;
  c.Sim.Counters.loads <- 100;
  check_int "ultra cycles"
    (1000 + (5 * 4) + (10 * 8) + 100)
    (Sim.Cycle_model.cycles Sim.Cycle_model.sparc_ultra1 c ~mispredicts:5);
  check_bool "indirect dearer on ultra" true
    (Sim.Cycle_model.sparc_ultra1.Sim.Cycle_model.indirect_penalty
     = 4 * Sim.Cycle_model.sparc_ipc.Sim.Cycle_model.indirect_penalty)

(* ------------------------------------------------------------------ *)
(* Profile runtime                                                     *)
(* ------------------------------------------------------------------ *)

let test_profile_range_counting () =
  let t = Sim.Profile.make () in
  let seq =
    Sim.Profile.register_range_seq t 0
      [| (min_int / 4, 9); (10, 10); (11, 31); (32, 32); (33, max_int / 4) |]
  in
  List.iter (fun v -> Sim.Profile.record_range t 0 v) [ 32; 32; 97; 10; 5; 200 ];
  check_int "executions" 6 seq.Sim.Profile.executions;
  check_int "blank count" 2 seq.Sim.Profile.counts.(3);
  check_int "newline count" 1 seq.Sim.Profile.counts.(1);
  check_int "low count" 1 seq.Sim.Profile.counts.(0);
  check_int "letters" 2 seq.Sim.Profile.counts.(4)

(* range sequences live in an array indexed by id: registration order,
   gaps and growth must not show through any read *)
let test_profile_range_ids () =
  let t = Sim.Profile.make () in
  let halves = [| (min_int / 4, 0); (1, max_int / 4) |] in
  List.iter
    (fun id -> ignore (Sim.Profile.register_range_seq t id halves))
    [ 5; 0; 17; 2 ];
  List.iter
    (fun (id, v) -> Sim.Profile.record_range t id v)
    [ (17, 3); (0, -1); (5, 9); (17, 0); (2, 1); (17, 8) ];
  let counts id =
    match Sim.Profile.find_range_seq t id with
    | Some s -> (Array.to_list s.Sim.Profile.counts, s.Sim.Profile.executions)
    | None -> Alcotest.failf "sequence %d not registered" id
  in
  let cnt = Alcotest.(pair (list int) int) in
  Alcotest.check cnt "seq 0" ([ 1; 0 ], 1) (counts 0);
  Alcotest.check cnt "seq 2" ([ 0; 1 ], 1) (counts 2);
  Alcotest.check cnt "seq 5" ([ 0; 1 ], 1) (counts 5);
  Alcotest.check cnt "seq 17" ([ 1; 2 ], 3) (counts 17);
  List.iter
    (fun id ->
      check_bool (Printf.sprintf "id %d unregistered" id) true
        (Sim.Profile.find_range_seq t id = None))
    [ -1; 1; 3; 16; 18; 1000 ];
  (* unknown ids and uncovered values are errors, not silent drops *)
  let rejects what id v =
    match Sim.Profile.record_range t id v with
    | () -> Alcotest.failf "recording %d into seq %d was accepted" v id
    | exception Invalid_argument m ->
      check_bool (Printf.sprintf "seq %d: %s" id m) true
        (contains_substring m what)
  in
  List.iter (fun id -> rejects "unknown id" id 0) [ -1; 1; 18; 1000 ];
  ignore (Sim.Profile.register_range_seq t 3 [| (0, 9) |]);
  rejects "not covered" 3 10;
  (match Sim.Profile.register_range_seq t (-1) halves with
  | _ -> Alcotest.fail "a negative id was registered"
  | exception Invalid_argument _ -> ());
  check_int "total executions" 6 (Sim.Profile.total_executions t);
  (* a shard has every id, zeroed; absorbing moves its counts back *)
  let shard = Sim.Profile.copy_shape t in
  let ranges, _ = Sim.Profile.counters shard in
  Alcotest.(check (list int)) "shard ids, sorted" [ 0; 2; 3; 5; 17 ]
    (List.map (fun (id, _, _) -> id) ranges);
  check_int "shard zeroed" 0 (Sim.Profile.total_executions shard);
  Sim.Profile.record_range shard 17 5;
  Sim.Profile.record_range shard 3 4;
  check_int "moved" 2 (Sim.Profile.absorb ~into:t shard);
  check_int "shard emptied" 0 (Sim.Profile.total_executions shard);
  Alcotest.check cnt "seq 17 after absorb" ([ 1; 3 ], 4) (counts 17);
  (* counters and set_counters round-trip onto a same-shape table *)
  let ranges, combs = Sim.Profile.counters t in
  let copy = Sim.Profile.copy_shape t in
  check_int "applied" 5 (Sim.Profile.set_counters copy ~ranges ~combs);
  check_bool "round trip" true (Sim.Profile.counters copy = (ranges, combs));
  (* ids the table does not know are skipped, not registered *)
  check_int "unknown id skipped" 0
    (Sim.Profile.set_counters copy ~ranges:[ (9, [| 1; 1 |], 2) ] ~combs:[]);
  check_bool "9 still unregistered" true
    (Sim.Profile.find_range_seq copy 9 = None)

(* [record_range] bumps the range a linear scan of the bounds finds,
   and raises exactly when none holds the value: random bounds, with
   and without gaps and single-value ranges, probed at [min_int],
   [max_int], every bound, its neighbours and random values *)
let test_profile_range_matches_linear_scan () =
  let rng = Random.State.make [| 41 |] in
  let any () =
    match Random.State.int rng 8 with
    | 0 -> min_int
    | 1 -> max_int
    | 2 | 3 -> Random.State.int rng 64 - 32
    | _ ->
      Random.State.bits rng
      lxor (Random.State.bits rng lsl 30)
      lxor (Random.State.bits rng lsl 60)
  in
  for trial = 1 to 300 do
    let points =
      List.sort_uniq Int.compare
        ((if Random.State.bool rng then [ min_int ] else [])
        @ List.init (1 + Random.State.int rng 12) (fun _ -> any ()))
    in
    let rec ranges = function
      | [] -> []
      | [ p ] -> [ (p, if Random.State.bool rng then max_int else p) ]
      | p :: (q :: _ as rest) ->
        let hi = if Random.State.int rng 4 = 0 then p else q - 1 in
        if Random.State.int rng 5 = 0 then ranges rest
        else (p, hi) :: ranges rest
    in
    let bounds = Array.of_list (ranges points) in
    let t = Sim.Profile.make () in
    let seq = Sim.Profile.register_range_seq t 0 bounds in
    let expect = Array.make (Array.length bounds) 0 in
    let probes =
      [ min_int; max_int ]
      @ List.concat_map
          (fun (lo, hi) -> [ lo; hi; lo - 1; hi + 1 ])
          (Array.to_list bounds)
      @ List.init 20 (fun _ -> any ())
    in
    List.iter
      (fun v ->
        let scan = ref (-1) in
        Array.iteri
          (fun i (lo, hi) -> if !scan < 0 && lo <= v && v <= hi then scan := i)
          bounds;
        match Sim.Profile.record_range t 0 v with
        | () ->
          if !scan < 0 then
            Alcotest.failf "trial %d: %d recorded but no range holds it" trial v;
          expect.(!scan) <- expect.(!scan) + 1
        | exception Invalid_argument _ ->
          if !scan >= 0 then
            Alcotest.failf "trial %d: %d rejected but range %d holds it" trial v
              !scan)
      probes;
    Alcotest.(check (array int))
      (Printf.sprintf "trial %d counts" trial)
      expect seq.Sim.Profile.counts;
    check_int
      (Printf.sprintf "trial %d executions" trial)
      (Array.fold_left ( + ) 0 expect)
      seq.Sim.Profile.executions;
    match Sim.Profile.record_range t 1 0 with
    | () -> Alcotest.failf "trial %d: an unknown id was recorded" trial
    | exception Invalid_argument m ->
      check_bool "unknown id named" true (contains_substring m "unknown id")
  done

let test_profile_comb_counting () =
  let t = Sim.Profile.make () in
  let conds =
    [| (Mir.Cond.Eq, reg 1, imm 0); (Mir.Cond.Gt, reg 2, imm 5) |]
  in
  let seq = Sim.Profile.register_comb_seq t 1 conds in
  let read values reg_t = List.nth values (Mir.Reg.to_int reg_t) in
  Sim.Profile.record_comb t 1 ~read_reg:(read [ 0; 0; 9 ]);  (* both true *)
  Sim.Profile.record_comb t 1 ~read_reg:(read [ 0; 1; 9 ]);  (* only 2nd *)
  Sim.Profile.record_comb t 1 ~read_reg:(read [ 0; 0; 0 ]);  (* only 1st *)
  check_int "mask 3" 1 seq.Sim.Profile.comb_counts.(3);
  check_int "mask 2" 1 seq.Sim.Profile.comb_counts.(2);
  check_int "mask 1" 1 seq.Sim.Profile.comb_counts.(1);
  check_int "executions" 3 seq.Sim.Profile.comb_executions

let test_profile_through_machine () =
  let prog =
    compile
      "int main() { int c; while ((c = getchar()) != EOF) { if (c == 'x') \
       putchar('!'); } return 0; }"
  in
  let seqs = Reorder.Detect.find_program prog in
  check_int "one sequence" 1 (List.length seqs);
  let table = Reorder.Profiles.instrument prog seqs in
  let _ = Sim.Machine.run prog ~profile:table ~input:"xxyyz" in
  let view = Reorder.Profiles.counts table (List.hd seqs) in
  check_int "total executions" 6 view.Reorder.Profiles.total;
  (* items: EOF and 'x' in source order *)
  check_int "EOF exits" 1 view.Reorder.Profiles.item_counts.(0);
  check_int "'x' exits" 2 view.Reorder.Profiles.item_counts.(1)

let suite =
  [
    case "machine: straight-line accounting" test_count_straight_line;
    case "machine: not-taken branch falls through" test_count_branch_fallthrough;
    case "machine: taken branch accounting" test_count_branch_taken;
    case "machine: layout jump charged" test_count_layout_jump;
    case "machine: filled delay slot" test_count_filled_delay_slot;
    case "machine: profile pseudos are free" test_profile_insns_are_free;
    case "machine: trap on division by zero" test_trap_div_by_zero;
    case "machine: trap on out-of-bounds" test_trap_oob;
    case "machine: trap on fuel exhaustion" test_trap_fuel;
    case "machine: watchdog cancels a short run past its deadline"
      test_watchdog_short_run;
    case "machine: trap on runaway recursion" test_trap_depth;
    case "machine: trap on unknown function" test_trap_unknown_function;
    case "machine: trap on unlowered switch" test_trap_unlowered_switch;
    case "machine: branch event stream" test_on_branch_events;
    case "machine: block trace" test_on_block_trace;
    case "predictor: saturating taken" test_predictor_always_taken;
    case "predictor: 1-bit loses on alternation" test_predictor_alternating;
    case "predictor: 2-bit tolerates single off-beats"
      test_predictor_two_bit_tolerates_one_off;
    case "predictor: aliasing hurts" test_predictor_aliasing;
    case "predictor: history learns patterns" test_predictor_history;
    case "predictor: reset and describe" test_predictor_reset_and_describe;
    case "cycle model: parameters" test_cycle_model;
    case "profile: range counters" test_profile_range_counting;
    case "profile: range sequences by id" test_profile_range_ids;
    case "profile: range lookup agrees with a linear scan"
      test_profile_range_matches_linear_scan;
    case "profile: combination counters" test_profile_comb_counting;
    case "profile: end-to-end through the machine" test_profile_through_machine;
  ]
