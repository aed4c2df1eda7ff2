type term_kind =
  | Br of Cond.t * string * string
  | Jmp of string
  | Switch of Reg.t * (int * string) list * string
  | Jtab of Reg.t * int
  | Ret of Operand.t option

type term = {
  kind : term_kind;
  mutable delay : Insn.t option;
  mutable annul : bool;
}

type t = {
  label : string;
  mutable insns : Insn.t list;
  mutable term : term;
}

let term kind = { kind; delay = None; annul = false }
let make ~label insns kind = { label; insns; term = term kind }

let successors ~jtab b =
  match b.term.kind with
  | Br (_, taken, not_taken) ->
    if String.equal taken not_taken then [ taken ] else [ taken; not_taken ]
  | Jmp l -> [ l ]
  | Switch (_, cases, default) ->
    let targets = List.map snd cases @ [ default ] in
    List.sort_uniq String.compare targets
  | Jtab (_, id) ->
    Array.to_list (jtab id) |> List.sort_uniq String.compare
  | Ret _ -> []

let retarget_term t ~from ~into =
  let swap l = if String.equal l from then into else l in
  let kind =
    match t.kind with
    | Br (c, a, b) -> Br (c, swap a, swap b)
    | Jmp l -> Jmp (swap l)
    | Switch (r, cases, d) ->
      Switch (r, List.map (fun (v, l) -> (v, swap l)) cases, swap d)
    | (Jtab _ | Ret _) as k -> k
  in
  { t with kind }

let equal_term_kind a b =
  match a, b with
  | Br (c1, t1, f1), Br (c2, t2, f2) ->
    Cond.equal c1 c2 && String.equal t1 t2 && String.equal f1 f2
  | Jmp l1, Jmp l2 -> String.equal l1 l2
  | Switch (r1, c1, d1), Switch (r2, c2, d2) ->
    Reg.equal r1 r2
    && List.equal (fun (i1, l1) (i2, l2) -> i1 = i2 && String.equal l1 l2) c1 c2
    && String.equal d1 d2
  | Jtab (r1, i1), Jtab (r2, i2) -> Reg.equal r1 r2 && i1 = i2
  | Ret o1, Ret o2 -> Option.equal Operand.equal o1 o2
  | (Br _ | Jmp _ | Switch _ | Jtab _ | Ret _), _ -> false

let pp_term_kind ppf = function
  | Br (c, taken, not_taken) ->
    Format.fprintf ppf "%s -> %s | %s" (Cond.mnemonic c) taken not_taken
  | Jmp l -> Format.fprintf ppf "jmp %s" l
  | Switch (r, cases, default) ->
    Format.fprintf ppf "switch %a [%a] default %s" Reg.pp r
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         (fun ppf (i, l) -> Format.fprintf ppf "%d:%s" i l))
      cases default
  | Jtab (r, id) -> Format.fprintf ppf "jtab %a, T%d" Reg.pp r id
  | Ret None -> Format.fprintf ppf "ret"
  | Ret (Some o) -> Format.fprintf ppf "ret %a" Operand.pp o

let pp_term ppf t =
  pp_term_kind ppf t.kind;
  match t.delay with
  | None -> ()
  | Some i ->
    Format.fprintf ppf "  ; delay%s: %a" (if t.annul then ",a" else "") Insn.pp i

let pp ppf b =
  Format.fprintf ppf "%s:@\n" b.label;
  List.iter (fun i -> Format.fprintf ppf "  %a@\n" Insn.pp i) b.insns;
  Format.fprintf ppf "  %a@\n" pp_term b.term

(* Transfer instructions needed by a terminator given the block laid out
   next: a jump that falls through assembles to nothing; every emitted
   transfer occupies one delay slot. *)
let transfer_count ~layout_next kind =
  let is_next l = match layout_next with Some n -> String.equal n l | None -> false in
  match kind with
  | Jmp l -> if is_next l then 0 else 1
  | Br (_, _, not_taken) -> if is_next not_taken then 1 else 2
  | Jtab _ -> 1
  | Ret _ -> 1
  | Switch _ -> 0

let static_insn_count ~layout_next b =
  let transfers = transfer_count ~layout_next b.term.kind in
  (* each transfer instruction carries a delay slot (filled or nop) *)
  List.length b.insns + (2 * transfers)
