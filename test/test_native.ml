(* The native (runtime-codegen) backend: four-way differentials against
   the reference oracle, the content-hashed artifact store, and the
   degradation path for hosts without a toolchain.

   Every test that needs the out-of-process compiler skips (rather than
   fails) when [Sim.Native.available] is false, so the suite stays
   green on hosts without ocamlfind — the same contract the driver's
   degradation ladder provides at run time. *)

open Helpers

let require_native () = if not (Sim.Native.available ()) then Alcotest.skip ()

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

let assert_native_matches_reference ?config ~name prog ~input =
  let r_ref, br_ref, bl_ref = capture ?config `Reference prog ~input in
  let r_nat, br_nat, bl_nat = capture ?config `Native prog ~input in
  check_output (name ^ " output") r_ref.Sim.Machine.output
    r_nat.Sim.Machine.output;
  check_int (name ^ " exit code") r_ref.Sim.Machine.exit_code
    r_nat.Sim.Machine.exit_code;
  List.iter2
    (fun (f, v_ref) (_, v_nat) -> check_int (name ^ " " ^ f) v_ref v_nat)
    (counter_fields r_ref.Sim.Machine.counters)
    (counter_fields r_nat.Sim.Machine.counters);
  check_bool (name ^ " branch events") true (br_ref = br_nat);
  check_bool (name ^ " block trace") true (bl_ref = bl_nat);
  let bank_tallies backend =
    let bank = Sim.Predictor.bank Driver.Config.paper_predictors in
    ignore
      (Sim.Machine.run ?config ~backend ~sink:(Sim.Predictor.Sink_bank bank)
         prog ~input);
    (Sim.Predictor.bank_mispredicts bank, Sim.Predictor.bank_lookups bank)
  in
  check_bool (name ^ " bank tallies") true
    (bank_tallies `Reference = bank_tallies `Native)

(* a private store so cache tests never see artifacts from other runs;
   removed on exit *)
let with_temp_store f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bromc-test-native-%d-%d" (Unix.getpid ())
         (Random.bits ()))
  in
  let rec rm d =
    if Sys.file_exists d then begin
      if Sys.is_directory d then begin
        Array.iter (fun e -> rm (Filename.concat d e)) (Sys.readdir d);
        try Unix.rmdir d with _ -> ()
      end
      else try Sys.remove d with _ -> ()
    end
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Differentials                                                       *)
(* ------------------------------------------------------------------ *)

(* a source that exercises every construct the generator emits:
   arithmetic incl. division/shifts, comparisons, nested calls and
   recursion, arrays, switch (indirect jumps after lowering), builtins,
   and data-dependent branching *)
let torture_src =
  {|
int tab[16];

int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}

int classify(int c) {
  switch (c) {
    case 0: return 10;
    case 1: return 11;
    case 2: return 12;
    case 3: return 13;
    case 7: return 17;
    default: return 99;
  }
}

int main() {
  int i; int c; int acc;
  acc = fib(10);
  for (i = 0; i < 16; i = i + 1) tab[i] = (i * 37 + 11) % 16;
  for (i = 0; i < 16; i = i + 1) acc = acc + classify(tab[i] % 9);
  c = getchar();
  while (c >= 0) {
    acc = acc + (c / 3) - (c % 5);
    if (c > 64) acc = acc * 2; else acc = acc - 1;
    putchar((acc % 26) + 97);
    c = getchar();
  }
  print_int(acc);
  return acc % 7;
}
|}

let test_torture_program () =
  require_native ();
  List.iter
    (fun (hs : Mopt.Switch_lower.heuristic_set) ->
      let prog = compile_final ~heuristic:hs torture_src in
      assert_native_matches_reference
        ~name:("torture/" ^ hs.Mopt.Switch_lower.hs_name)
        prog ~input:"Hello, branch reordering world! 0123456789")
    Mopt.Switch_lower.all_sets

(* the tentpole differential: all 17 workloads under all 3 heuristic
   sets, native vs reference, on shortened inputs (full inputs belong
   to the bench, not the unit suite) *)
let test_workloads_all_sets () =
  require_native ();
  let truncate s = String.sub s 0 (min 500 (String.length s)) in
  List.iter
    (fun (w : Workloads.Spec.t) ->
      List.iter
        (fun (hs : Mopt.Switch_lower.heuristic_set) ->
          let prog =
            compile_final ~heuristic:hs w.Workloads.Spec.source
          in
          assert_native_matches_reference
            ~name:
              (w.Workloads.Spec.name ^ "/" ^ hs.Mopt.Switch_lower.hs_name)
            prog
            ~input:(truncate (Lazy.force w.Workloads.Spec.test_input)))
        Mopt.Switch_lower.all_sets)
    Workloads.Registry.all

(* reordered code must agree too: run the full pipeline, then diff the
   reordered program across the oracle and the native backend *)
let test_reordered_version () =
  require_native ();
  let w = Workloads.Registry.find "awk" in
  let input =
    String.sub (Lazy.force w.Workloads.Spec.test_input) 0 400
  in
  let r =
    reorder_pipeline ~training_input:input ~test_input:input
      w.Workloads.Spec.source
  in
  assert_native_matches_reference ~name:"awk reordered"
    r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_program ~input

(* trap behaviour must be identical down to the message string *)
let assert_same_trap ~name ?config src ~input =
  let prog = compile_final src in
  let trap_of backend =
    match Sim.Machine.run ?config ~backend prog ~input with
    | _ -> None
    | exception Sim.Machine.Trap m -> Some m
  in
  let t_ref = trap_of `Reference in
  let t_nat = trap_of `Native in
  check_bool (name ^ " both trap") true (t_ref <> None && t_nat <> None);
  check_output (name ^ " trap message")
    (Option.value ~default:"" t_ref)
    (Option.value ~default:"" t_nat)

let test_trap_messages () =
  require_native ();
  assert_same_trap ~name:"division by zero"
    "int main() { int d; d = getchar(); return 7 / (d + 1); }" ~input:"";
  assert_same_trap ~name:"out of bounds"
    "int a[4]; int main() { int i; i = getchar() + 10; return a[i]; }"
    ~input:"";
  assert_same_trap ~name:"call depth"
    "int f(int n) { return f(n + 1); } int main() { return f(0); }" ~input:"";
  assert_same_trap ~name:"fuel"
    ~config:{ Sim.Machine.default_config with Sim.Machine.fuel = 100 }
    "int main() { int i; i = 0; while (i >= 0) i = i + 1; return 0; }"
    ~input:""

(* Generated code keeps one register file per call depth and zeroes it
   on entry, so reuse must never clobber a live register: [deep]
   recurses with several registers live across the call, [wide] (more
   registers than any caller) runs at depths [deep] used before, and
   the mutual recursion of [ping]/[pong] ends in a depth trap on input
   ["!"].  MiniC zeroes its locals, so the textual MIR of [peek_mir]
   reads two registers it never wrote, in the depth-1 file that [wide]
   filled just before.  The three engines must agree on everything
   observable. *)
let frames_src =
  {|
int wide(int a, int b) {
  int p; int q; int r; int s; int t; int u; int v; int w; int x; int y;
  p = a * 3; q = b * 5; r = p - q; s = r * 7 + a; t = s % 13 + b;
  u = t * p - q; v = u + r * s; w = v % 101 - t; x = w * 2 + u; y = x - p;
  return p + q + r + s + t + u + v + w + x + y;
}

int small(int a) { return a + 1; }

int deep(int n, int a, int b) {
  int x; int y; int z; int w;
  if (n == 0) return wide(a, b);
  x = n * 3 + a;
  y = b - n * 7;
  z = (x * 5) % 11 + y;
  w = x - y + z;
  return x + deep(n - 1, y, z) * 2 + y - z * w + small(w);
}

int ping(int n, int lim) {
  if (n > lim) return n;
  return pong(n + 1, lim) + 1;
}

int pong(int n, int lim) { return ping(n + 1, lim) * 3 % 1009; }

int main() {
  int i; int acc; int c; int lim;
  acc = 0;
  c = getchar();
  lim = 40;
  if (c == 33) lim = 1000000;
  for (i = 0; i < 6; i = i + 1) {
    acc = acc + small(i) + deep(i + 3, i, c);
    acc = (acc + wide(i, acc % 13)) % 1000003;
    print_int(acc);
    putchar(10);
  }
  return ping(0, lim) % 256;
}
|}

let peek_mir =
  {|function wide(r0):
wide.entry:
  r1 = add r0, 1
  r2 = add r1, 2
  r3 = add r2, 3
  r4 = add r3, 4
  r5 = add r4, 5
  r6 = add r5, 6
  r7 = add r6, 7
  ret r7

function peek(r0):
peek.entry:
  r5 = add r3, r4
  r6 = add r5, r0
  ret r6

function main():
main.entry:
  r0 = call wide(7)
  r1 = call peek(r0)
  call print_int(r1)
  ret r1
|}

let test_frame_reuse () =
  require_native ();
  let observe prog backend input =
    let events = ref [] in
    let on_branch ~site ~taken = events := (site, taken) :: !events in
    let outcome =
      match
        Sim.Machine.run ~backend ~sink:(Sim.Predictor.Sink_fun on_branch) prog
          ~input
      with
      | r ->
        Ok
          ( r.Sim.Machine.output,
            r.Sim.Machine.exit_code,
            counter_fields r.Sim.Machine.counters )
      | exception Sim.Machine.Trap m -> Error m
    in
    (outcome, List.rev !events)
  in
  let minic = compile_final frames_src in
  List.iter
    (fun (prog, input, traps) ->
      let want = observe prog `Reference input in
      (match fst want with
      | Error m ->
        check_bool (input ^ ": reference traps") true traps;
        check_output (input ^ ": depth trap") "call depth exceeded in pong" m
      | Ok _ -> check_bool (input ^ ": reference runs to exit") false traps);
      List.iter
        (fun (name, backend) ->
          let got = observe prog backend input in
          check_bool
            (Printf.sprintf "%s on %S: outcome" name input)
            true
            (fst got = fst want);
          check_bool
            (Printf.sprintf "%s on %S: branch events" name input)
            true
            (snd got = snd want))
        [ ("compiled", `Compiled); ("native", `Native) ])
    [ (minic, "a", false); (minic, "!", true);
      (Mir.Parse.program peek_mir, "", false) ]

(* The generated code allocates per run, not per simulated call or
   block: one warm native exec of each program on its 1 KB input
   allocates at most twice the minor words of the closure backend's *)
let test_native_allocation () =
  require_native ();
  let minor_words f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let image = Sim.Image.build (compile_final w.Workloads.Spec.source) in
      let input = cold_input (Lazy.force w.Workloads.Spec.test_input) in
      let code = Sim.Compiled.compile image in
      let native =
        match Sim.Native.prepare image with
        | Ok t -> t
        | Error e -> Alcotest.failf "%s: native prepare: %s" w.Workloads.Spec.name e
      in
      let compiled_w = minor_words (fun () -> Sim.Compiled.exec code ~input) in
      let native_w = minor_words (fun () -> Sim.Native.exec native ~input) in
      if native_w > 2.0 *. compiled_w then
        Alcotest.failf "%s: native exec allocates %.0f words, compiled %.0f"
          w.Workloads.Spec.name native_w compiled_w)
    Workloads.Registry.all

(* [sort]'s globals (136,000 words) are over the minor heap's size
   limit, so they are pooled; [pr], [ptx] and [sed] print more than the
   output buffer's first 1 KB, so it is reused.  A warm exec of any of
   them on either fast engine allocates no major-heap words directly
   (major words minus the words the minor collector promoted) beyond a
   small bound *)
let test_warm_exec_no_major_allocation () =
  let direct_major_words f =
    ignore (f ());
    let _, promoted0, major0 = Gc.counters () in
    ignore (f ());
    let _, promoted1, major1 = Gc.counters () in
    major1 -. major0 -. (promoted1 -. promoted0)
  in
  let bound = 128. in
  let programs =
    List.map
      (fun name ->
        let w = Workloads.Registry.find name in
        let image = Sim.Image.build (compile_final w.Workloads.Spec.source) in
        (name, image, cold_input (Lazy.force w.Workloads.Spec.test_input)))
      [ "sort"; "pr"; "ptx"; "sed" ]
  in
  let check name engine words =
    if words > bound then
      Alcotest.failf "%s exec of %s allocates %.0f major words directly"
        engine name words
  in
  List.iter
    (fun (name, image, input) ->
      let code = Sim.Compiled.compile image in
      check name "compiled"
        (direct_major_words (fun () -> Sim.Compiled.exec code ~input)))
    programs;
  require_native ();
  List.iter
    (fun (name, image, input) ->
      match Sim.Native.prepare image with
      | Error e -> Alcotest.failf "%s: native prepare: %s" name e
      | Ok native ->
        check name "native"
          (direct_major_words (fun () -> Sim.Native.exec native ~input)))
    programs

(* Reused global memory must be indistinguishable from fresh memory.
   Each scenario is a sequence of runs on one domain; every run on the
   compiled and native engines must match the reference interpreter's
   output, exit code and counters, or its trap.  All the programs'
   arrays have one length over the pool's 256-word threshold, so each
   run may take an array an earlier run dirtied. *)
let pool_writer =
  compile_final
    {|int a[300];
int main() { int i; i = 0; while (i < 300) { a[i] = i + 1; i = i + 1; }
  print_int(a[299]); return 0; }|}

(* reads cells it never wrote *)
let pool_reader =
  compile_final
    {|int b[300];
int main() { int i; int s; s = 0; i = 0;
  while (i < 300) { s = s + b[i] * (i + 1); i = i + 1; }
  print_int(s); return s; }|}

(* two globals of one length, as [sort]'s [offs] and [perm]: prints 300
   only if they are distinct zeroed arrays *)
let pool_pair =
  compile_final
    {|int p[300]; int q[300];
int main() { int i; int s; int t;
  i = 0; while (i < 300) { p[i] = 1; i = i + 1; }
  s = 0; i = 0; while (i < 300) { s = s + q[i]; i = i + 1; }
  i = 0; while (i < 300) { q[i] = 2; i = i + 1; }
  t = 0; i = 0; while (i < 300) { t = t + p[i]; i = i + 1; }
  print_int(s * 1000 + t); return 0; }|}

(* an initializer shorter than its array: the first three cells and
   nothing else are nonzero on entry, every run *)
let pool_init =
  Mir.Parse.program
    {|global s[300] = {5, 6, 7}

function main():
main.entry:
  r0 = 0
  r1 = 0
  jmp sum
sum:
  r2 = M[s + r0]
  r1 = add r1, r2
  r0 = add r0, 1
  cmp r0, 300
  bl -> sum | fill0
fill0:
  r0 = 0
  jmp fill
fill:
  M[s + r0] = 9
  r0 = add r0, 1
  cmp r0, 300
  bl -> fill | done
done:
  call print_int(r1)
  ret r1
|}

(* traps out of bounds halfway through dirtying its array *)
let pool_trapper =
  compile_final
    {|int a[300];
int main() { int i; i = 0;
  while (i < 300) { a[i] = 7; if (i == 150) a[i + 1000] = 1; i = i + 1; }
  return 0; }|}

let pool_outcome run =
  match run () with
  | (r : Sim.Machine.result) ->
    Ok (r.Sim.Machine.output, r.Sim.Machine.exit_code,
        counter_fields r.Sim.Machine.counters)
  | exception Sim.Machine.Trap m -> Error m

type pool_engine = {
  e_name : string;
  e_run :
    ?config:Sim.Machine.config -> ?sink:Sim.Predictor.sink ->
    Mir.Program.t -> Sim.Machine.result;
}

(* the fast engines under test, each program compiled or prepared once
   and then shared by every run (and domain) that executes it *)
let pool_engines () =
  let programs =
    [ pool_writer; pool_reader; pool_pair; pool_init; pool_trapper ]
  in
  let compiled =
    List.map (fun p -> (p, Sim.Compiled.compile (Sim.Image.build p))) programs
  in
  let native () =
    List.map
      (fun p ->
        match Sim.Native.prepare (Sim.Image.build p) with
        | Ok t -> (p, t)
        | Error e -> Alcotest.failf "native prepare: %s" e)
      programs
  in
  {
    e_name = "compiled";
    e_run =
      (fun ?config ?sink p ->
        Sim.Compiled.exec ?config ?sink (List.assq p compiled) ~input:"");
  }
  ::
  (if Sim.Native.available () then
     let native = native () in
     [
       {
         e_name = "native";
         e_run =
           (fun ?config ?sink p ->
             Sim.Native.exec ?config ?sink (List.assq p native) ~input:"");
       };
     ]
   else [])

let reference_run ?config ?sink prog =
  Sim.Machine.run_reference ?config ?sink prog ~input:""

let test_pooled_memory_is_fresh () =
  let engines = pool_engines () in
  let starved = { Sim.Machine.default_config with Sim.Machine.fuel = 500 } in
  let scenarios =
    [
      ("shared length", [ (pool_writer, None); (pool_reader, None) ]);
      ("two globals of one length", [ (pool_pair, None); (pool_pair, None) ]);
      ( "initializer re-applied",
        [ (pool_writer, None); (pool_init, None); (pool_init, None) ] );
      ("trap mid-write", [ (pool_trapper, None); (pool_reader, None) ]);
      ("fuel mid-write", [ (pool_writer, Some starved); (pool_reader, None) ]);
    ]
  in
  List.iter
    (fun (scenario, runs) ->
      List.iteri
        (fun i (prog, config) ->
          let want = pool_outcome (fun () -> reference_run ?config prog) in
          (match config, want with
          | Some _, Ok _ -> Alcotest.failf "%s: the starved run must trap" scenario
          | _ -> ());
          List.iter
            (fun e ->
              check_bool
                (Printf.sprintf "%s, run %d: %s agrees with the reference"
                   scenario i e.e_name)
                true
                (pool_outcome (fun () -> e.e_run ?config prog) = want))
            engines)
        runs)
    scenarios;
  (* a branch-event callback that runs the writer, nested inside a run
     that holds its own array of the same length *)
  let nested run =
    let inner = ref [] and events = ref 0 in
    let sink =
      Sim.Predictor.Sink_fun
        (fun ~site:_ ~taken:_ ->
          incr events;
          if !events mod 100 = 0 then
            inner :=
              pool_outcome (fun () -> run Sim.Predictor.Sink_none pool_writer)
              :: !inner)
    in
    let outer = pool_outcome (fun () -> run sink pool_pair) in
    (outer, !inner)
  in
  let want = nested (fun sink prog -> reference_run ~sink prog) in
  check_bool "nested runs happened" true (snd want <> []);
  List.iter
    (fun e ->
      check_bool
        (Printf.sprintf "nested exec: %s agrees with the reference" e.e_name)
        true
        (nested (fun sink prog -> e.e_run ~sink prog) = want))
    engines;
  (* two domains running one artifact at once, each alternating a
     writer with programs that read what they never wrote *)
  let want =
    List.map
      (fun p -> pool_outcome (fun () -> reference_run p))
      [ pool_writer; pool_pair; pool_reader ]
  in
  List.iter
    (fun e ->
      let worker () =
        List.init 20 (fun _ ->
            List.map
              (fun p -> pool_outcome (fun () -> e.e_run p))
              [ pool_writer; pool_pair; pool_reader ])
      in
      let doms = List.init 2 (fun _ -> Domain.spawn worker) in
      List.iter
        (fun d ->
          List.iter
            (fun got ->
              check_bool
                (Printf.sprintf "two domains: %s agrees with the reference"
                   e.e_name)
                true (got = want))
            (Domain.join d))
        doms)
    engines

(* the watchdog must still fire inside generated code: cancellation is
   polled at every basic-block entry, exactly like the other backends *)
let test_watchdog_fires () =
  require_native ();
  let prog =
    compile_final
      "int main() { int i; i = 0; while (i >= 0) i = i + 1; return 0; }"
  in
  let config =
    {
      Sim.Machine.default_config with
      Sim.Machine.fuel = max_int;
      cancel = Some (fun () -> true);
    }
  in
  match Sim.Native.run_image ~config (Sim.Image.build prog) ~input:"" with
  | _ -> Alcotest.fail "expected Cancelled"
  | exception Sim.Runtime.Cancelled -> ()

(* Fuel-sweep parity: both fast backends charge in batches, so a fuel
   trap is exact only if every batch is flushed where the reference
   interpreter would have run out.  Sweep every budget from 0 to the
   run's total + 2 and require the three engines to agree on what the
   outside world sees: the trap message, or output, exit code and
   counters; plus the branch events delivered and the profile counters
   recorded up to that point.  Native joins when a toolchain exists. *)
let fuel_sweep ~name ?profile prog ~input =
  let image = Sim.Image.build prog in
  let compiled = Sim.Compiled.compile image in
  let observe run fuel =
    let events = ref [] in
    let on_branch ~site ~taken = events := (site, taken) :: !events in
    let table = Option.map Sim.Profile.copy_shape profile in
    let config = { Sim.Machine.default_config with Sim.Machine.fuel } in
    let outcome =
      match run ~config ~profile:table ~on_branch with
      | (r : Sim.Machine.result) ->
        Ok (r.Sim.Machine.output, r.Sim.Machine.exit_code,
            counter_fields r.Sim.Machine.counters)
      | exception Sim.Machine.Trap m -> Error m
    in
    (outcome, List.rev !events, Option.map Sim.Profile.counters table)
  in
  let reference ~config ~profile ~on_branch =
    Sim.Machine.run_reference ~config ?profile
      ~sink:(Sim.Predictor.Sink_fun on_branch) prog ~input
  in
  let engines =
    ("compiled", fun ~config ~profile ~on_branch ->
        Sim.Compiled.exec ~config ?profile
          ~sink:(Sim.Predictor.Sink_fun on_branch) compiled ~input)
    ::
    (if Sim.Native.available () then
       match Sim.Native.prepare image with
       | Ok t ->
         [ ("native", fun ~config ~profile ~on_branch ->
               Sim.Native.exec ~config ?profile
                 ~sink:(Sim.Predictor.Sink_fun on_branch) t ~input) ]
       | Error e -> Alcotest.failf "%s: native prepare: %s" name e
     else [])
  in
  let total =
    match observe reference max_int with
    | Ok (_, _, counters), _, _ -> List.assoc "insns" counters
    | Error m, _, _ -> Alcotest.failf "%s traps without a fuel limit: %s" name m
  in
  let show = function
    | Ok (_, code, counters) ->
      Printf.sprintf "exit %d, %d insns" code (List.assoc "insns" counters)
    | Error m -> "trap: " ^ m
  in
  for fuel = 0 to total + 2 do
    let expect = observe reference fuel in
    List.iter
      (fun (engine, run) ->
        let outcome, events, counts = observe run fuel in
        let want, want_events, want_counts = expect in
        let diverges what =
          Alcotest.failf "%s: %s %s diverge from reference at fuel %d" name
            engine what fuel
        in
        if outcome <> want then
          diverges
            (Printf.sprintf "outcomes (%s vs %s)" (show outcome) (show want));
        if events <> want_events then diverges "branch events";
        if counts <> want_counts then diverges "profile counters")
      engines
  done

let test_fuel_sweep () =
  List.iter
    (fun (hs : Mopt.Switch_lower.heuristic_set) ->
      fuel_sweep
        ~name:("torture/" ^ hs.Mopt.Switch_lower.hs_name)
        (compile_final ~heuristic:hs torture_src)
        ~input:"Hello, branch reordering world! 0123456789")
    Mopt.Switch_lower.all_sets;
  let w = Workloads.Registry.find "wc" in
  let input = String.sub (Lazy.force w.Workloads.Spec.test_input) 0 200 in
  let config = Driver.Config.default in
  let r =
    reorder_pipeline ~config ~training_input:input ~test_input:input
      w.Workloads.Spec.source
  in
  check_bool "wc has reordered sequences" true
    (Reorder.Pass.reordered_count r.Driver.Pipeline.r_report > 0);
  fuel_sweep ~name:"wc reordered"
    r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_program ~input;
  (* the training clone records profile counts at every sequence head,
     which are flush points of their own *)
  let base = Driver.Pipeline.compile_base config w.Workloads.Spec.source in
  let train, table =
    Driver.Pipeline.instrument config base
      (Driver.Pipeline.detect_seqs config base)
  in
  fuel_sweep ~name:"wc training clone" ~profile:table train ~input

(* ------------------------------------------------------------------ *)
(* The artifact store                                                  *)
(* ------------------------------------------------------------------ *)

let test_generate_deterministic () =
  (* no toolchain needed: codegen is pure *)
  let img () = Sim.Image.build (compile_final torture_src) in
  let src1, _ = Sim.Native.generate (img ()) in
  let src2, _ = Sim.Native.generate (img ()) in
  check_bool "equal images generate byte-identical source" true (src1 = src2)

let test_cache_hit_determinism () =
  require_native ();
  with_temp_store (fun dir ->
      let prog = compile_final torture_src in
      let img = Sim.Image.build prog in
      let input = "cache determinism" in
      (* earlier tests may have loaded this very image: the memo is keyed
         by content, not by store location, so start from a cold table *)
      Sim.Native.clear_memo ();
      Sim.Native.reset_stats ();
      let time f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (Unix.gettimeofday () -. t0, r)
      in
      let miss_t, t1 =
        time (fun () ->
            match Sim.Native.prepare ~cache_dir:dir img with
            | Ok t -> t
            | Error e -> Alcotest.failf "prepare (miss): %s" e)
      in
      let s1 = Sim.Native.stats () in
      check_int "first prepare misses" 1 s1.Sim.Native.misses;
      check_int "first prepare compiles" 1 s1.Sim.Native.compiles;
      let r1 = Sim.Native.exec t1 ~input in
      (* drop the in-process memo so the second prepare must go to disk *)
      Sim.Native.clear_memo ();
      let hit_t, t2 =
        time (fun () ->
            match Sim.Native.prepare ~cache_dir:dir img with
            | Ok t -> t
            | Error e -> Alcotest.failf "prepare (hit): %s" e)
      in
      let s2 = Sim.Native.stats () in
      check_int "second prepare is a disk hit" 1 s2.Sim.Native.disk_hits;
      check_int "second prepare does not compile" 1 s2.Sim.Native.compiles;
      let r2 = Sim.Native.exec t2 ~input in
      check_output "second run output byte-identical" r1.Sim.Machine.output
        r2.Sim.Machine.output;
      check_int "second run exit code" r1.Sim.Machine.exit_code
        r2.Sim.Machine.exit_code;
      check_bool "second run counters" true
        (r1.Sim.Machine.counters = r2.Sim.Machine.counters);
      (* loading a .cmxs is orders of magnitude cheaper than running
         ocamlopt; a generous factor keeps this robust on slow hosts *)
      check_bool "cache hit faster than miss" true (hit_t < miss_t);
      (* and a third prepare is served by the in-process memo *)
      (match Sim.Native.prepare ~cache_dir:dir img with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "prepare (memo): %s" e);
      let s3 = Sim.Native.stats () in
      check_int "third prepare is a memo hit" 1 s3.Sim.Native.memo_hits)

(* [Machine.run] is the one-shot dispatcher: the store directory it
   takes must reach the native engine unchanged *)
let test_machine_run_cache_dir () =
  require_native ();
  with_temp_store (fun dir ->
      let prog = compile_final "int main() { return 43; }" in
      let image = Sim.Image.build prog in
      let run () =
        let r =
          Sim.Machine.run ~backend:`Native ~image ~cache_dir:dir prog ~input:""
        in
        check_int "exit code" 43 r.Sim.Machine.exit_code
      in
      Sim.Native.clear_memo ();
      Sim.Native.reset_stats ();
      run ();
      check_bool "artifact stored under cache_dir" true
        (List.exists
           (fun (e : Sim.Native.Cache.entry) -> e.Sim.Native.Cache.e_files > 0)
           (Sim.Native.Cache.list ~dir ()));
      Sim.Native.clear_memo ();
      run ();
      check_int "a fresh process-side run is a disk hit" 1
        (Sim.Native.stats ()).Sim.Native.disk_hits)

(* a call without [~cache_dir] resolves to the suite's private store,
   never to the user's: a test run leaves [~/.cache/bromc] as it was *)
let test_suite_store_is_private () =
  require_native ();
  let img = Sim.Image.build (compile_final "int main() { return 44; }") in
  match Sim.Native.store_path img with
  | None -> Alcotest.fail "no store path while the backend is available"
  | Some path ->
    check_bool "default store is the suite's own" true
      (String.starts_with ~prefix:(native_store ^ Filename.dir_sep) path)

let test_cache_clear_and_evict () =
  require_native ();
  with_temp_store (fun dir ->
      let img = Sim.Image.build (compile_final "int main() { return 5; }") in
      Sim.Native.clear_memo ();
      (match Sim.Native.prepare ~cache_dir:dir img with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "prepare: %s" e);
      let current =
        match Sim.Native.Cache.fingerprint () with
        | Some fp -> fp
        | None -> Alcotest.fail "toolchain has no fingerprint"
      in
      (* plant a stale fingerprint directory next to the current one *)
      let stale = Filename.concat dir "9.9.9-w64-s0" in
      Unix.mkdir stale 0o755;
      let oc = open_out (Filename.concat stale "bromc_native_dead.cmxs") in
      output_string oc "stale";
      close_out oc;
      let entries = Sim.Native.Cache.list ~dir () in
      check_int "two fingerprints listed" 2 (List.length entries);
      check_bool "current fingerprint flagged" true
        (List.exists
           (fun (e : Sim.Native.Cache.entry) ->
             e.Sim.Native.Cache.e_current
             && e.Sim.Native.Cache.e_fingerprint = current)
           entries);
      let evicted = Sim.Native.Cache.evict_stale ~dir () in
      check_int "stale artifact evicted" 1 evicted;
      check_bool "current artifact survives eviction" true
        (List.exists
           (fun (e : Sim.Native.Cache.entry) ->
             e.Sim.Native.Cache.e_fingerprint = current
             && e.Sim.Native.Cache.e_files = 1)
           (Sim.Native.Cache.list ~dir ()));
      let cleared = Sim.Native.Cache.clear ~dir () in
      check_bool "clear removes the rest" true (cleared >= 1);
      check_int "store empty after clear" 0
        (List.fold_left
           (fun acc (e : Sim.Native.Cache.entry) ->
             acc + e.Sim.Native.Cache.e_files)
           0
           (Sim.Native.Cache.list ~dir ())))

(* Damage an artifact on disk without touching the mapped inode: this
   process may have the .cmxs dlopened, and truncating or rewriting a
   mapped file in place raises SIGBUS.  Write-then-rename puts the
   damage on the store while live mappings keep the old inode. *)
let damage_in_store path bytes =
  let tmp = path ^ ".dmg" in
  let oc = open_out_bin tmp in
  output_string oc bytes;
  close_out oc;
  Sys.rename tmp path

let test_checksum_quarantine () =
  require_native ();
  with_temp_store (fun dir ->
      let img = Sim.Image.build (compile_final "int main() { return 7; }") in
      Sim.Native.clear_memo ();
      Sim.Native.reset_stats ();
      (match Sim.Native.prepare ~cache_dir:dir img with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "prepare: %s" e);
      let fpr =
        match Sim.Native.Cache.fingerprint () with
        | Some fp -> fp
        | None -> Alcotest.fail "toolchain has no fingerprint"
      in
      let store = Filename.concat dir fpr in
      let cmxs =
        match
          Sys.readdir store |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".cmxs")
        with
        | [ f ] -> Filename.concat store f
        | l -> Alcotest.failf "expected one artifact, found %d" (List.length l)
      in
      check_bool "install writes the checksum sidecar" true
        (Sys.file_exists (cmxs ^ ".sum"));
      let v = Sim.Native.Cache.verify ~dir () in
      check_int "verify: one artifact checked" 1 v.Sim.Native.Cache.v_checked;
      check_int "verify: intact artifact passes" 1 v.Sim.Native.Cache.v_ok;
      (* corrupt the stored bytes; the sidecar is now a witness *)
      damage_in_store cmxs "not a plugin";
      let v = Sim.Native.Cache.verify ~dir () in
      check_int "verify: mismatch quarantined" 1
        v.Sim.Native.Cache.v_quarantined;
      check_bool "artifact moved aside, not deleted" true
        (Sys.file_exists (Filename.concat dir "quarantine")
        && Sys.readdir (Filename.concat dir "quarantine") <> [||]);
      check_bool "store slot is free" false (Sys.file_exists cmxs);
      (* the next prepare rebuilds from source and reinstalls *)
      Sim.Native.clear_memo ();
      Sim.Native.reset_stats ();
      (match Sim.Native.prepare ~cache_dir:dir img with
      | Ok t ->
        let r = Sim.Native.exec t ~input:"" in
        check_int "rebuilt artifact still correct" 7 r.Sim.Machine.exit_code
      | Error e -> Alcotest.failf "prepare after quarantine: %s" e);
      check_int "rebuild was a miss + compile" 1
        (Sim.Native.stats ()).Sim.Native.compiles;
      (* load-path self-healing: corrupt again, prepare directly *)
      damage_in_store cmxs "still not a plugin";
      Sim.Native.clear_memo ();
      Sim.Native.reset_stats ();
      (match Sim.Native.prepare ~cache_dir:dir img with
      | Ok t ->
        let r = Sim.Native.exec t ~input:"" in
        check_int "self-healed load still correct" 7 r.Sim.Machine.exit_code
      | Error e -> Alcotest.failf "self-healing prepare: %s" e);
      let s = Sim.Native.stats () in
      check_int "load path quarantined the damage" 1 s.Sim.Native.quarantined;
      check_int "and recompiled" 1 s.Sim.Native.compiles;
      (* a sidecar-less artifact is trusted no more than a mismatching
         one: verify quarantines it, and so does the load path *)
      Sys.remove (cmxs ^ ".sum");
      let v = Sim.Native.Cache.verify ~dir () in
      check_int "verify: sidecar-less artifact quarantined" 1
        v.Sim.Native.Cache.v_quarantined;
      check_bool "verify: store slot is free" false (Sys.file_exists cmxs);
      Sim.Native.clear_memo ();
      (match Sim.Native.prepare ~cache_dir:dir img with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "prepare after verify: %s" e);
      Sys.remove (cmxs ^ ".sum");
      Sim.Native.clear_memo ();
      Sim.Native.reset_stats ();
      (match Sim.Native.prepare ~cache_dir:dir img with
      | Ok t ->
        let r = Sim.Native.exec t ~input:"" in
        check_int "sidecar-less artifact rebuilt, still correct" 7
          r.Sim.Machine.exit_code
      | Error e -> Alcotest.failf "sidecar-less prepare: %s" e);
      let s = Sim.Native.stats () in
      check_int "load path quarantined the sidecar-less artifact" 1
        s.Sim.Native.quarantined;
      check_int "and recompiled" 1 s.Sim.Native.compiles;
      check_bool "rebuild wrote a sidecar" true
        (Sys.file_exists (cmxs ^ ".sum")))

(* ------------------------------------------------------------------ *)
(* Degradation                                                         *)
(* ------------------------------------------------------------------ *)

let small_native_job () =
  let w = Workloads.Registry.find "wc" in
  let slice s = String.sub s 0 (min 2000 (String.length s)) in
  Driver.Pipeline.job
    ~config:{ Driver.Config.default with Driver.Config.backend = `Native }
    ~name:"wc" ~source:w.Workloads.Spec.source
    ~training_input:(slice (Lazy.force w.Workloads.Spec.training_input))
    ~test_input:(slice (Lazy.force w.Workloads.Spec.test_input))
    ()

(* force the backend off and require the guarded runner to serve the
   job from the compiled rung, recording the divergence — this is the
   no-toolchain path, so it must pass on every host *)
let test_degrades_to_compiled () =
  let was = Sim.Native.enabled () in
  Fun.protect
    ~finally:(fun () -> Sim.Native.set_enabled was)
    (fun () ->
      Sim.Native.set_enabled false;
      check_bool "disabled backend reports unavailable" false
        (Sim.Native.available ());
      (match
         Sim.Native.prepare
           (Sim.Image.build (compile_final "int main() { return 0; }"))
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "prepare must fail when disabled");
      let job = small_native_job () in
      let o =
        Driver.Pipeline.run_guarded_job ~index:0
          ~policy:
            { Driver.Guard.default with Driver.Guard.degrade = true }
          job
      in
      check_bool "job succeeded" true
        (Driver.Pool.outcome_ok o.Driver.Pipeline.o_outcome);
      check_output "served rung recorded" "compiled"
        o.Driver.Pipeline.o_backend;
      check_bool "degradation recorded" true o.Driver.Pipeline.o_degraded)

(* with degradation disabled, the missing toolchain surfaces as a
   contained crash, not a green result on a different engine *)
let test_no_degrade_is_contained_crash () =
  let was = Sim.Native.enabled () in
  Fun.protect
    ~finally:(fun () -> Sim.Native.set_enabled was)
    (fun () ->
      Sim.Native.set_enabled false;
      let job = small_native_job () in
      let o =
        Driver.Pipeline.run_guarded_job ~index:0
          ~policy:
            { Driver.Guard.default with Driver.Guard.degrade = false }
          job
      in
      check_bool "outcome is a failure" false
        (Driver.Pool.outcome_ok o.Driver.Pipeline.o_outcome);
      check_output "rung stays native" "native" o.Driver.Pipeline.o_backend;
      check_bool "unavailability attributed" true
        (List.exists
           (fun e -> contains_substring e "native backend unavailable")
           o.Driver.Pipeline.o_errors))

let suite =
  [
    case "generate is deterministic" test_generate_deterministic;
    case "torture program x3 heuristic sets" test_torture_program;
    slow_case "17 workloads x 3 heuristic sets vs reference"
      test_workloads_all_sets;
    slow_case "reordered pipeline output" test_reordered_version;
    case "trap messages identical" test_trap_messages;
    case "frame reuse keeps live registers, three engines agree"
      test_frame_reuse;
    case "native exec allocates what the closure backend does"
      test_native_allocation;
    case "warm sort, pr, ptx and sed allocate no major words directly"
      test_warm_exec_no_major_allocation;
    case "pooled global memory is indistinguishable from fresh"
      test_pooled_memory_is_fresh;
    case "watchdog fires inside native code" test_watchdog_fires;
    slow_case "fuel sweep: every budget, three engines agree" test_fuel_sweep;
    case "cache: miss, disk hit, memo hit, determinism"
      test_cache_hit_determinism;
    case "cache: Machine.run passes cache_dir" test_machine_run_cache_dir;
    case "cache: the suite's default store is private"
      test_suite_store_is_private;
    case "cache: list, evict stale fingerprints, clear"
      test_cache_clear_and_evict;
    case "cache: checksum mismatch quarantined and rebuilt"
      test_checksum_quarantine;
    case "degrades to compiled when unavailable" test_degrades_to_compiled;
    case "no-degrade policy yields contained crash"
      test_no_degrade_is_contained_crash;
  ]
