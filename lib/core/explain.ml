module Iv = Analysis.Iv
module Lint = Analysis.Lint

let block_effects ?intervals b =
  match Analysis.Purity.effects ?intervals b with
  | [] -> ""
  | effs -> Printf.sprintf " (block effects: %s)" (Analysis.Purity.describe effs)

(* why the walk could not continue from [seq]'s last test into its
   default target *)
let stop_reason fn fx (seq : Detect.t) ~member =
  let var = seq.Detect.var in
  let stop = seq.Detect.default_target in
  match Mir.Func.find_block_opt fn stop with
  | None -> Format.asprintf "its continuation %s leaves the function" stop
  | Some sb when Hashtbl.mem member stop ->
    Format.asprintf
      "its continuation %s already belongs to another detected sequence"
      sb.Mir.Block.label
  | Some sb -> (
    match sb.Mir.Block.term.Mir.Block.kind with
    | Mir.Block.Jmp l ->
      Format.asprintf
        "its continuation %s is an unconditional jump to %s (detection does \
         not follow forwarders)"
        stop l
    | Mir.Block.Switch _ | Mir.Block.Jtab _ ->
      Format.asprintf "its continuation %s is an indirect multiway jump" stop
    | Mir.Block.Ret _ ->
      Format.asprintf "its continuation %s returns" stop
    | Mir.Block.Br _ -> (
      match Detect.split_last_cmp sb.Mir.Block.insns with
      | None ->
        if Detect.has_call sb then
          Format.asprintf
            "a call in %s clobbers the condition codes before its branch%s"
            stop
            (block_effects ?intervals:fx sb)
        else
          Format.asprintf
            "the branch in %s consumes condition codes inherited across the \
             sequence edge, which the preceding test does not leave in a \
             usable form"
            stop
      | Some (pre, a, cb, post) -> (
        let sides_bad insns =
          List.exists
            (fun i -> Detect.defines_var var i || Mir.Insn.is_profile i)
            insns
        in
        match (a, cb) with
        | Mir.Operand.Reg r, Mir.Operand.Imm c
        | Mir.Operand.Imm c, Mir.Operand.Reg r ->
          if not (Mir.Reg.equal r var) then
            Format.asprintf
              "its continuation %s tests %a, not the sequence variable %a"
              stop Mir.Reg.pp r Mir.Reg.pp var
          else if not (Detect.in_bounds c) then
            Format.asprintf
              "the compare constant %d in %s is at the edge of the \
               representable range"
              c stop
          else if post <> [] && fx = None then
            Format.asprintf
              "instructions follow the compare in %s; interval-facts \
               detection would consider it"
              stop
          else if List.exists (Detect.defines_var var) post then
            Format.asprintf
              "instructions between the compare and the branch in %s \
               redefine %a"
              stop Mir.Reg.pp var
          else if sides_bad (pre @ post) then
            Format.asprintf
              "instructions around the compare in %s redefine %a or are \
               profiling probes, so they cannot be duplicated onto exit \
               edges"
              stop Mir.Reg.pp var
          else
            let avail =
              match fx with
              | None -> ""
              | Some fx ->
                Format.asprintf " (values reaching the test: %a)" Iv.pp
                  (Analysis.Intervals.reg_before fx sb (List.length pre) var)
            in
            Format.asprintf
              "the range tested in %s overlaps values already claimed by \
               the sequence%s"
              stop avail
        | Mir.Operand.Reg _, Mir.Operand.Reg _ ->
          if fx = None then
            Format.asprintf
              "the compare in %s is between two registers; interval-facts \
               detection may pin one operand to a constant"
              stop
          else
            Format.asprintf
              "the compare in %s is between two registers and the interval \
               facts pin neither operand to a constant"
              stop
        | Mir.Operand.Imm _, Mir.Operand.Imm _ ->
          Format.asprintf "the compare in %s is between two constants" stop)))

let explain_func ?facts fn =
  let next_id = ref 0 in
  let probes = Detect.find_func ?facts ~min_len:1 ~next_id fn in
  (* blocks owned by real (>= 2 test) sequences, so a lone test stopping
     at one is explained as such *)
  let member = Hashtbl.create 16 in
  List.iter
    (fun (seq : Detect.t) ->
      if Detect.items_count seq >= 2 then begin
        Hashtbl.replace member seq.Detect.head ();
        List.iter
          (fun (it : Detect.item) ->
            List.iter
              (fun l -> Hashtbl.replace member l ())
              it.Detect.item_blocks)
          seq.Detect.items
      end)
    probes;
  List.filter_map
    (fun (seq : Detect.t) ->
      if Detect.items_count seq >= 2 then None
      else
        Some
          {
            Lint.func = fn.Mir.Func.name;
            label = seq.Detect.head;
            kind = Lint.Not_reorderable;
            message =
              Format.asprintf "lone range test on %a: %s" Mir.Reg.pp
                seq.Detect.var
                (stop_reason fn facts seq ~member);
          })
    probes

let explain_program ?(facts = true) (p : Mir.Program.t) =
  List.concat_map
    (fun fn ->
      let facts =
        if facts then Some (Analysis.Intervals.analyze fn) else None
      in
      explain_func ?facts fn)
    p.Mir.Program.funcs
