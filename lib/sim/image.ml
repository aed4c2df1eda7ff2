type pop =
  | Preg of int
  | Pimm of int

type builtin = Bgetchar | Bputchar | Bprint_int | Bexit

type pinsn =
  | Pmov of int * pop
  | Punop of Mir.Insn.unop * int * pop
  | Pbinop of Mir.Insn.binop * int * pop * pop
  | Pload of int * int * pop
  | Pstore of int * pop * pop
  | Pcmp of pop * pop
  | Pcall of int * int * pop array
  | Pbuiltin of int * builtin * pop array
  | Pnop
  | Pprofile_range of int * int
  | Pprofile_comb of int
  | Ptrap_insn of string

type pterm =
  | Pbr of Mir.Cond.t * int * int * bool
  | Pjmp of int * bool
  | Pjtab of int * int array
  | Pret of pop option
  | Ptrap_term of string
  | Praise_term of exn

type pblock = {
  pb_label : string;
  pb_insns : pinsn array;
  pb_term : pterm;
  pb_delay : pinsn option;
  pb_annul : bool;
  pb_site : int;
}

type pfunc = {
  pf_name : string;
  pf_params : int array;
  pf_nregs : int;
  pf_blocks : pblock array;
  pf_unknown : string array;
}

type global = {
  g_name : string;
  g_size : int;
  g_init : int array option;
}

type t = {
  funcs : pfunc array;
  main_id : int;
  globals : global array;
  nsites : int;
}

(* highest register id actually referenced, for register files of
   hand-built functions whose [next_reg] counter was never advanced *)
let max_reg_of (fn : Mir.Func.t) =
  let m = ref fn.Mir.Func.next_reg in
  Mir.Func.iter_regs (fun r -> m := max !m (Mir.Reg.to_int r + 1)) fn;
  !m

let pop_of = function
  | Mir.Operand.Reg r -> Preg (Mir.Reg.to_int r)
  | Mir.Operand.Imm n -> Pimm n

let decode_func ~fid_of ~slot_of ~next_site (fn : Mir.Func.t) =
  let blocks = Array.of_list fn.Mir.Func.blocks in
  let n = Array.length blocks in
  let labels = Array.map (fun (b : Mir.Block.t) -> b.Mir.Block.label) blocks in
  (* label -> index, last definition wins, matching the reference
     interpreter's Hashtbl.replace over the layout *)
  let index_of = Hashtbl.create (max 16 n) in
  Array.iteri (fun i l -> Hashtbl.replace index_of l i) labels;
  let unknown = ref [] and n_unknown = ref 0 in
  let unknown_ids : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let resolve label =
    match Hashtbl.find_opt index_of label with
    | Some i -> i
    | None -> (
      match Hashtbl.find_opt unknown_ids label with
      | Some k -> -k - 1
      | None ->
        let k = !n_unknown in
        incr n_unknown;
        unknown := label :: !unknown;
        Hashtbl.replace unknown_ids label k;
        -k - 1)
  in
  let decode_insn (i : Mir.Insn.t) =
    match i with
    | Mir.Insn.Mov (r, o) -> Pmov (Mir.Reg.to_int r, pop_of o)
    | Mir.Insn.Unop (op, r, o) -> Punop (op, Mir.Reg.to_int r, pop_of o)
    | Mir.Insn.Binop (op, r, a, b) ->
      Pbinop (op, Mir.Reg.to_int r, pop_of a, pop_of b)
    | Mir.Insn.Load (r, sym, idx) -> (
      match Hashtbl.find_opt slot_of sym with
      | Some slot -> Pload (Mir.Reg.to_int r, slot, pop_of idx)
      | None -> Ptrap_insn (Printf.sprintf "access to unknown global %s" sym))
    | Mir.Insn.Store (sym, idx, v) -> (
      match Hashtbl.find_opt slot_of sym with
      | Some slot -> Pstore (slot, pop_of idx, pop_of v)
      | None -> Ptrap_insn (Printf.sprintf "access to unknown global %s" sym))
    | Mir.Insn.Cmp (a, b) -> Pcmp (pop_of a, pop_of b)
    | Mir.Insn.Call (dst, name, args) -> (
      let d = match dst with Some r -> Mir.Reg.to_int r | None -> -1 in
      let pargs = Array.of_list (List.map pop_of args) in
      let nargs = Array.length pargs in
      match name, nargs with
      | "getchar", 0 -> Pbuiltin (d, Bgetchar, pargs)
      | "putchar", 1 -> Pbuiltin (d, Bputchar, pargs)
      | "print_int", 1 -> Pbuiltin (d, Bprint_int, pargs)
      | "exit", 1 -> Pbuiltin (d, Bexit, pargs)
      | ("getchar" | "putchar" | "print_int" | "exit"), _ ->
        Ptrap_insn (Printf.sprintf "builtin %s: wrong number of arguments" name)
      | _, _ -> (
        match Hashtbl.find_opt fid_of name with
        | Some fid -> Pcall (d, fid, pargs)
        | None -> Ptrap_insn (Printf.sprintf "call to unknown function %s" name)))
    | Mir.Insn.Nop -> Pnop
    | Mir.Insn.Profile_range (id, r) -> Pprofile_range (id, Mir.Reg.to_int r)
    | Mir.Insn.Profile_comb id -> Pprofile_comb id
  in
  let decode_term i (b : Mir.Block.t) =
    (* the layout fall-through checks mirror the reference interpreter,
       which compares the *label* of the next block in the layout *)
    let falls_to l = i + 1 < n && String.equal labels.(i + 1) l in
    match b.Mir.Block.term.Mir.Block.kind with
    | Mir.Block.Br (cond, taken_l, not_taken_l) ->
      Pbr (cond, resolve taken_l, resolve not_taken_l, falls_to not_taken_l)
    | Mir.Block.Jmp l -> Pjmp (resolve l, falls_to l)
    | Mir.Block.Switch _ ->
      Ptrap_term
        (Printf.sprintf "unlowered switch reached the simulator (%s)"
           b.Mir.Block.label)
    | Mir.Block.Jtab (r, id) -> (
      match Mir.Func.jtab fn id with
      | table -> Pjtab (Mir.Reg.to_int r, Array.map resolve table)
      | exception e -> Praise_term e)
    | Mir.Block.Ret v -> Pret (Option.map pop_of v)
  in
  let pblocks =
    Array.mapi
      (fun i (b : Mir.Block.t) ->
        let site = !next_site in
        incr next_site;
        {
          pb_label = b.Mir.Block.label;
          pb_insns = Array.of_list (List.map decode_insn b.Mir.Block.insns);
          pb_term = decode_term i b;
          pb_delay = Option.map decode_insn b.Mir.Block.term.Mir.Block.delay;
          pb_annul = b.Mir.Block.term.Mir.Block.annul;
          pb_site = site;
        })
      blocks
  in
  {
    pf_name = fn.Mir.Func.name;
    pf_params =
      Array.of_list (List.map Mir.Reg.to_int fn.Mir.Func.params);
    pf_nregs = max_reg_of fn;
    pf_blocks = pblocks;
    pf_unknown = Array.of_list (List.rev !unknown);
  }

let build (p : Mir.Program.t) =
  let globals =
    Array.of_list
      (List.map
         (fun (g : Mir.Program.global) ->
           {
             g_name = g.Mir.Program.gname;
             g_size = g.Mir.Program.size;
             g_init = g.Mir.Program.init;
           })
         p.Mir.Program.globals)
  in
  let slot_of = Hashtbl.create (max 16 (Array.length globals)) in
  Array.iteri (fun i g -> Hashtbl.replace slot_of g.g_name i) globals;
  let fns = Array.of_list p.Mir.Program.funcs in
  let fid_of = Hashtbl.create (max 16 (Array.length fns)) in
  Array.iteri
    (fun i (f : Mir.Func.t) -> Hashtbl.replace fid_of f.Mir.Func.name i)
    fns;
  let next_site = ref 0 in
  let funcs = Array.map (decode_func ~fid_of ~slot_of ~next_site) fns in
  let main_id =
    match Hashtbl.find_opt fid_of "main" with Some i -> i | None -> -1
  in
  { funcs; main_id; globals; nsites = !next_site }

(* site numbers are assigned densely in program order, so the inverse
   map is a direct fill — no re-lowering and no sort *)
let sites (t : t) =
  let out = Array.make t.nsites ("", "") in
  Array.iter
    (fun f ->
      Array.iter
        (fun b -> out.(b.pb_site) <- (f.pf_name, b.pb_label))
        f.pf_blocks)
    t.funcs;
  out

let find_func (t : t) name =
  let n = Array.length t.funcs in
  let rec go i =
    if i >= n then None
    else if String.equal t.funcs.(i).pf_name name then Some t.funcs.(i)
    else go (i + 1)
  in
  go 0

let site_of (t : t) ~func ~label =
  match find_func t func with
  | None -> None
  | Some f ->
    (* last definition wins, matching the interpreters' label maps *)
    let site = ref (-1) in
    Array.iter
      (fun b -> if String.equal b.pb_label label then site := b.pb_site)
      f.pf_blocks;
    if !site < 0 then None else Some !site

(* Global arrays longer than [Max_young_wosize] (256 words) are
   allocated straight on the major heap, so each domain keeps the ones
   its finished runs used, listed by length, and hands them out again
   zeroed and re-initialized.  Shorter arrays come from the minor heap,
   where a fresh one is cheaper than a lookup. *)
let pooled size = size > 256

let pool_key : (int, int array list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let take pool g =
  let init = match g.g_init with Some a -> a | None -> [||] in
  let n = Array.length init in
  match if pooled g.g_size then Hashtbl.find_opt pool g.g_size else None with
  | Some (arr :: rest) ->
    Hashtbl.replace pool g.g_size rest;
    Array.blit init 0 arr 0 n;
    Array.fill arr n (g.g_size - n) 0;
    arr
  | _ ->
    let arr = Array.make g.g_size 0 in
    Array.blit init 0 arr 0 n;
    arr

let give_back mem =
  let pool = Domain.DLS.get pool_key in
  Array.iter
    (fun arr ->
      let n = Array.length arr in
      if pooled n then
        Hashtbl.replace pool n
          (arr :: Option.value ~default:[] (Hashtbl.find_opt pool n)))
    mem

let with_memory (t : t) f =
  let mem = Array.map (take (Domain.DLS.get pool_key)) t.globals in
  Fun.protect ~finally:(fun () -> give_back mem) (fun () -> f mem)

(* The output buffer of a run, likewise per domain: an output past 1 KB
   would otherwise regrow a fresh buffer onto the major heap on every
   run.  A nested run takes a buffer of its own off the list. *)
let output_key : Buffer.t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let with_output f =
  let free = Domain.DLS.get output_key in
  let buf =
    match !free with
    | b :: rest ->
      free := rest;
      Buffer.clear b;
      b
    | [] -> Buffer.create 1024
  in
  Fun.protect ~finally:(fun () -> free := buf :: !free) (fun () -> f buf)

type batching = Bnop | Bpure | Beffect | Bobserve

let batching = function
  | Pnop -> Bnop
  | Pmov _ | Punop _ | Pcmp _ -> Bpure
  (* division and modulus by a register (or zero) can trap *)
  | Pbinop ((Mir.Insn.Div | Mir.Insn.Rem), _, _, (Pimm 0 | Preg _)) -> Beffect
  | Pbinop _ -> Bpure
  | Pload _ | Pstore _ | Pcall _ | Pbuiltin _ -> Beffect
  | Pprofile_range _ | Pprofile_comb _ | Ptrap_insn _ -> Bobserve

type plan = { flushes : (int * int) array; owed : int * int }

let plan (b : pblock) =
  let pi = ref 0 and pn = ref 0 in
  let flushes =
    Array.map
      (fun i ->
        match batching i with
        | Bnop ->
          incr pi;
          incr pn;
          (0, 0)
        | Bpure ->
          incr pi;
          (0, 0)
        | Beffect ->
          let f = (!pi + 1, !pn) in
          pi := 0;
          pn := 0;
          f
        | Bobserve ->
          let f = (!pi, !pn) in
          pi := 0;
          pn := 0;
          f)
      b.pb_insns
  in
  { flushes; owed = (!pi, !pn) }
