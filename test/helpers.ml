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

let check_output = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

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
