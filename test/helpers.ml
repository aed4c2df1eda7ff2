(* Shared helpers for the test suites. *)

let compile ?(heuristic = Mopt.Switch_lower.set_i) src =
  let prog = Minic.Lower.compile src in
  Mopt.Switch_lower.lower_program heuristic prog;
  Mopt.Cleanup.run prog;
  prog

let compile_final ?heuristic src =
  let prog = compile ?heuristic src in
  ignore (Mopt.Cleanup.finalize prog);
  Mir.Validate.check prog;
  prog

(* run a MiniC program and return its output *)
let run_src ?heuristic ?(input = "") src =
  let prog = compile_final ?heuristic src in
  let result = Sim.Machine.run prog ~input in
  result.Sim.Machine.output

let run_prog ?(input = "") prog = Sim.Machine.run prog ~input

(* full reordering pipeline on a source string; returns (original version,
   reordered version, pipeline result) *)
let reorder_pipeline ?(config = Driver.Config.default) ~training_input
    ~test_input src =
  Driver.Pipeline.run ~config ~name:"test" ~source:src ~training_input
    ~test_input ()

(* the suite's own native store, so the user's store is never read or
   written.  It sits at the root of the build tree, [_build/], since
   dune deletes what it did not make from [_build/<context>/test/]
   before each run, and the plugins the suite compiles stay warm for
   the next one *)
let native_store =
  let build_root = Filename.(dirname (dirname (dirname Sys.executable_name))) in
  Filename.concat build_root "test-native-store"

(* a workload input cut to at most 1 KB, at a newline: the size of the
   server's cold inputs *)
let cold_input text =
  if String.length text <= 1024 then text
  else
    match String.rindex_from_opt text 1023 '\n' with
    | Some i when i > 0 -> String.sub text 0 (i + 1)
    | _ -> String.sub text 0 1024

let check_output = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* [actual] must equal the committed file [test/golden/<name>].  On a
   difference the actual text is written to [<name>.actual] in the
   test's working directory, ready to inspect or to commit. *)
let check_golden name actual =
  let expected =
    In_channel.with_open_bin (Filename.concat "golden" name) In_channel.input_all
  in
  if not (String.equal expected actual) then begin
    let out = Filename.concat (Sys.getcwd ()) (name ^ ".actual") in
    Out_channel.with_open_bin out (fun oc -> output_string oc actual);
    let rec first_diff i = function
      | e :: es, a :: as_ when String.equal e a -> first_diff (i + 1) (es, as_)
      | _ -> i
    in
    Alcotest.failf "golden/%s differs from line %d on (actual text in %s)" name
      (first_diff 1
         (String.split_on_char '\n' expected, String.split_on_char '\n' actual))
      out
  end

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* QCheck2 flavour, for generators shared with lib/check (Check.Gen) *)
let qcheck2 ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen prop)

(* a deterministic pseudo-random int stream for building test data *)
let mix seed i = ((seed * 1103515245) + (i * 12345)) land 0x3FFFFFFF

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then false
    else if String.sub haystack i n = needle then true
    else go (i + 1)
  in
  n = 0 || go 0

(* assert that a validation result is an error mentioning [substr] *)
let expect_invalid ?substr result =
  match result with
  | Ok () -> Alcotest.fail "expected validation to fail"
  | Error msgs -> (
    match substr with
    | None -> ()
    | Some s ->
      if not (List.exists (fun m -> contains_substring m s) msgs) then
        Alcotest.failf "no validation message mentions %S in: %s" s
          (String.concat " | " msgs))

let expect_srcloc_error f =
  match f () with
  | exception Minic.Srcloc.Error _ -> ()
  | _ -> Alcotest.fail "expected a front-end error"

let expect_trap f =
  match f () with
  | exception Sim.Machine.Trap _ -> ()
  | _ -> Alcotest.fail "expected a simulator trap"

(* reference dominance: a dominates b iff b is unreachable from the
   entry once a is removed (meaningful when both are reachable).  One
   reachability sweep per dominator candidate, memoized per function. *)
let reference_dominates fn =
  let avoiding = Hashtbl.create 16 in
  let reachable_avoiding a =
    match Hashtbl.find_opt avoiding a with
    | Some seen -> seen
    | None ->
      let seen = Hashtbl.create 16 in
      let rec go l =
        if (not (Hashtbl.mem seen l)) && not (String.equal l a) then begin
          Hashtbl.replace seen l ();
          match Mir.Func.find_block_opt fn l with
          | Some b -> List.iter go (Mir.Func.successors fn b)
          | None -> ()
        end
      in
      (match fn.Mir.Func.blocks with
      | e :: _ -> go e.Mir.Block.label
      | [] -> ());
      Hashtbl.replace avoiding a seen;
      seen
  in
  fun a b -> String.equal a b || not (Hashtbl.mem (reachable_avoiding a) b)

(* Analysis.Dom against the path-cutting reference on every pair of
   reachable blocks: the dominance verdicts, and each block's immediate
   dominator — the strict dominator that every other strict dominator
   dominates *)
let dom_matches_reference fn =
  let dom = Analysis.Dom.compute fn in
  let refdom = reference_dominates fn in
  let reach = Mir.Func.reachable fn in
  let labels =
    List.filter_map
      (fun (b : Mir.Block.t) ->
        if Hashtbl.mem reach b.Mir.Block.label then Some b.Mir.Block.label
        else None)
      fn.Mir.Func.blocks
  in
  List.for_all
    (fun b ->
      let strict =
        List.filter (fun a -> (not (String.equal a b)) && refdom a b) labels
      in
      let expected_idom =
        List.find_opt
          (fun d -> List.for_all (fun a -> refdom a d) strict)
          strict
      in
      Option.equal String.equal (Analysis.Dom.idom dom b) expected_idom
      && List.for_all
           (fun a -> Analysis.Dom.dominates dom a b = refdom a b)
           labels)
    labels

(* the optimized base of every built-in workload under one heuristic
   set, as the pipeline's detection sees it *)
let workload_bases ?heuristic () =
  List.map
    (fun (w : Workloads.Spec.t) -> compile ?heuristic w.Workloads.Spec.source)
    Workloads.Registry.all

(* [fn] with register [from] renamed to [into] everywhere it occurs:
   parameters, instructions, delay slots and terminators *)
let rename_reg ~from ~into (fn : Mir.Func.t) =
  let reg x = if Mir.Reg.equal x from then into else x in
  let op = function
    | Mir.Operand.Reg x -> Mir.Operand.Reg (reg x)
    | Mir.Operand.Imm _ as o -> o
  in
  let insn = function
    | Mir.Insn.Mov (d, a) -> Mir.Insn.Mov (reg d, op a)
    | Mir.Insn.Unop (u, d, a) -> Mir.Insn.Unop (u, reg d, op a)
    | Mir.Insn.Binop (b, d, x, y) -> Mir.Insn.Binop (b, reg d, op x, op y)
    | Mir.Insn.Load (d, s, i) -> Mir.Insn.Load (reg d, s, op i)
    | Mir.Insn.Store (s, i, v) -> Mir.Insn.Store (s, op i, op v)
    | Mir.Insn.Cmp (a, b) -> Mir.Insn.Cmp (op a, op b)
    | Mir.Insn.Call (d, f, args) ->
      Mir.Insn.Call (Option.map reg d, f, List.map op args)
    | Mir.Insn.Profile_range (k, x) -> Mir.Insn.Profile_range (k, reg x)
    | (Mir.Insn.Nop | Mir.Insn.Profile_comb _) as i -> i
  in
  let kind = function
    | Mir.Block.Switch (x, cases, d) -> Mir.Block.Switch (reg x, cases, d)
    | Mir.Block.Jtab (x, t) -> Mir.Block.Jtab (reg x, t)
    | Mir.Block.Ret (Some o) -> Mir.Block.Ret (Some (op o))
    | (Mir.Block.Br _ | Mir.Block.Jmp _ | Mir.Block.Ret None) as k -> k
  in
  let g =
    Mir.Func.make ~name:fn.Mir.Func.name
      ~params:(List.map reg fn.Mir.Func.params)
  in
  g.Mir.Func.jtables <- fn.Mir.Func.jtables;
  List.iter
    (fun (b : Mir.Block.t) ->
      let t = b.Mir.Block.term in
      Mir.Func.add_block g
        {
          Mir.Block.label = b.Mir.Block.label;
          insns = List.map insn b.Mir.Block.insns;
          term =
            {
              Mir.Block.kind = kind t.Mir.Block.kind;
              delay = Option.map insn t.Mir.Block.delay;
              annul = t.Mir.Block.annul;
            };
        })
    fn.Mir.Func.blocks;
  g

(* the distinct registers [fn] names, in register order *)
let regs_of fn =
  let s = ref Mir.Reg.Set.empty in
  Mir.Func.iter_regs (fun r -> s := Mir.Reg.Set.add r !s) fn;
  Mir.Reg.Set.elements !s

(* Every interval fact of [fn] as text: the iteration count, and per
   block its reachability, branch fate, cc operands at the terminator
   and the interval of each register before every instruction.  [regs]
   pairs the name a register is printed under with the register to
   query, so two renamings of one function print alike. *)
let interval_facts ~regs (fn : Mir.Func.t) =
  let t = Analysis.Intervals.analyze fn in
  let buf = Buffer.create 4096 in
  let iv = Analysis.Iv.show in
  Printf.bprintf buf "%s: %d iterations\n" fn.Mir.Func.name
    (Analysis.Intervals.iterations t);
  List.iter
    (fun (b : Mir.Block.t) ->
      let label = b.Mir.Block.label in
      Printf.bprintf buf "%s reachable=%b fate=%s cc=%s\n" label
        (Analysis.Intervals.reachable t label)
        (match Analysis.Intervals.branch_fate t b with
        | `Always_taken -> "always"
        | `Never_taken -> "never"
        | `Unknown -> "unknown"
        | `Unreachable -> "unreachable")
        (match Analysis.Intervals.cc_at_term t b with
        | None -> "none"
        | Some (x, y) -> iv x ^ "," ^ iv y);
      for i = 0 to List.length b.Mir.Block.insns do
        Printf.bprintf buf " @%d" i;
        List.iter
          (fun (name, r) ->
            Printf.bprintf buf " %s=%s" name
              (iv (Analysis.Intervals.reg_before t b i r)))
          regs;
        Buffer.add_char buf '\n'
      done)
    fn.Mir.Func.blocks;
  Buffer.contents buf

let own_regs fn = List.map (fun r -> (Mir.Reg.show r, r)) (regs_of fn)
