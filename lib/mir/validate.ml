let err errors fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

let check_labels errors (f : Func.t) =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun b ->
      let l = b.Block.label in
      if Hashtbl.mem seen l then err errors "%s: duplicate label %s" f.Func.name l;
      Hashtbl.replace seen l ())
    f.Func.blocks;
  let check_target ctx l =
    if not (Hashtbl.mem seen l) then
      err errors "%s: %s references undefined label %s" f.Func.name ctx l
  in
  List.iter
    (fun b ->
      let ctx = b.Block.label in
      match b.Block.term.kind with
      | Block.Br (_, taken, not_taken) ->
        check_target ctx taken;
        check_target ctx not_taken
      | Block.Jmp l -> check_target ctx l
      | Block.Switch (_, cases, default) ->
        List.iter (fun (_, l) -> check_target ctx l) cases;
        check_target ctx default
      | Block.Jtab (_, id) -> (
        match List.nth_opt f.Func.jtables id with
        | None -> err errors "%s: %s references undefined jump table %d" f.Func.name ctx id
        | Some targets -> Array.iter (check_target (ctx ^ " (table)")) targets)
      | Block.Ret _ -> ())
    f.Func.blocks

let check_switch errors allow_switch (f : Func.t) =
  if not allow_switch then
    List.iter
      (fun b ->
        match b.Block.term.kind with
        | Block.Switch _ ->
          err errors "%s: %s has an unlowered switch terminator" f.Func.name
            b.Block.label
        | Block.Br _ | Block.Jmp _ | Block.Jtab _ | Block.Ret _ -> ())
      f.Func.blocks

let check_delay errors (f : Func.t) =
  List.iter
    (fun b ->
      match b.Block.term.delay with
      | None -> ()
      | Some (Insn.Cmp _) ->
        err errors "%s: %s delay slot contains a cmp" f.Func.name b.Block.label
      | Some (Insn.Call _) ->
        err errors "%s: %s delay slot contains a call" f.Func.name b.Block.label
      | Some
          ( Insn.Mov _ | Insn.Unop _ | Insn.Binop _ | Insn.Load _ | Insn.Store _
          | Insn.Nop | Insn.Profile_range _ | Insn.Profile_comb _ ) ->
        ())
    f.Func.blocks

(* Forward "condition codes defined" dataflow: a Br is valid only if every
   path from the entry sets the codes with a Cmp first. *)
let check_cc errors (f : Func.t) =
  match f.Func.blocks with
  | [] -> err errors "%s: function has no blocks" f.Func.name
  | entry :: _ ->
    let cc_in = Hashtbl.create 64 in
    (* true = cc known defined on entry; start optimistic (true) everywhere
       except the entry, standard for a "must" analysis *)
    List.iter (fun b -> Hashtbl.replace cc_in b.Block.label true) f.Func.blocks;
    Hashtbl.replace cc_in entry.Block.label false;
    let block_out b =
      let inn = Hashtbl.find cc_in b.Block.label in
      inn || List.exists (function Insn.Cmp _ -> true | _ -> false) b.Block.insns
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          let out = block_out b in
          List.iter
            (fun s ->
              match Hashtbl.find_opt cc_in s with
              | Some old when old && not out ->
                if not (String.equal s entry.Block.label) then begin
                  Hashtbl.replace cc_in s false;
                  changed := true
                end
              | Some _ | None -> ())
            (Func.successors f b))
        f.Func.blocks
    done;
    let reachable = Func.reachable f in
    List.iter
      (fun b ->
        match b.Block.term.kind with
        | Block.Br _ when Hashtbl.mem reachable b.Block.label ->
          if not (block_out b) then
            err errors "%s: branch in %s not dominated by a cmp" f.Func.name
              b.Block.label
        | Block.Br _ | Block.Jmp _ | Block.Switch _ | Block.Jtab _ | Block.Ret _
          ->
          ())
      f.Func.blocks

let check_init_regs errors (f : Func.t) =
  let live = Liveness.compute f in
  match f.Func.blocks with
  | [] -> ()
  | entry :: _ ->
    let params = Reg.Set.of_list f.Func.params in
    let undefined = Reg.Set.diff (Liveness.live_in live entry.Block.label) params in
    if not (Reg.Set.is_empty undefined) then
      err errors "%s: registers possibly read before written: %s" f.Func.name
        (String.concat ", "
           (List.map Reg.show (Reg.Set.elements undefined)))

(* the simulators give each function a register file with one slot per
   id up to the largest id used *)
let check_regs errors (f : Func.t) =
  let too_large = ref Reg.Set.empty in
  Func.iter_regs
    (fun r ->
      if Reg.to_int r >= Sys.max_array_length then
        too_large := Reg.Set.add r !too_large)
    f;
  Reg.Set.iter
    (fun r ->
      err errors "%s: register id %s is too large" f.Func.name (Reg.show r))
    !too_large

let func ?(allow_switch = false) ?(check_init = false) f =
  let errors = ref [] in
  check_regs errors f;
  check_labels errors f;
  check_switch errors allow_switch f;
  check_delay errors f;
  if !errors = [] then check_cc errors f;
  if check_init && !errors = [] then check_init_regs errors f;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

(* the simulators allocate each global as an array of [size] words and
   blit its initializer in *)
let global_error (g : Program.global) =
  match g.Program.init with
  | _ when g.Program.size < 0 ->
    Some (Printf.sprintf "global %s: negative size %d" g.Program.gname
            g.Program.size)
  | _ when g.Program.size >= Sys.max_array_length ->
    Some (Printf.sprintf "global %s: size %d is too large" g.Program.gname
            g.Program.size)
  | Some init when Array.length init > g.Program.size ->
    Some
      (Printf.sprintf "global %s: initializer of %d words exceeds size %d"
         g.Program.gname (Array.length init) g.Program.size)
  | _ -> None

let program ?allow_switch ?check_init (p : Program.t) =
  let all_errors =
    List.filter_map global_error p.Program.globals
    @ List.concat_map
        (fun f ->
          match func ?allow_switch ?check_init f with
          | Ok () -> []
          | Error es -> es)
        p.Program.funcs
  in
  match all_errors with [] -> Ok () | es -> Error es

let check ?allow_switch ?check_init p =
  match program ?allow_switch ?check_init p with
  | Ok () -> ()
  | Error es -> failwith ("MIR validation failed:\n  " ^ String.concat "\n  " es)
