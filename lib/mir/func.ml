(* The label index of one block list.  It is never mutated once built,
   and [over] is compared physically: a pass that edits the layout
   assigns a new list, which invalidates the index. *)
type index = { over : Block.t list; by_label : (string, Block.t) Hashtbl.t }

type t = {
  name : string;
  params : Reg.t list;
  mutable blocks : Block.t list;
  mutable jtables : string array list;
  mutable next_reg : int;
  mutable next_label : int;
  index : index Atomic.t;
}

let no_index = { over = []; by_label = Hashtbl.create 1 }

let make ~name ~params =
  let max_param =
    List.fold_left (fun acc r -> max acc (Reg.to_int r + 1)) 0 params
  in
  {
    name;
    params;
    blocks = [];
    jtables = [];
    next_reg = max_param;
    next_label = 0;
    index = Atomic.make no_index;
  }

let entry f =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg ("Func.entry: empty function " ^ f.name)

let fresh_reg f =
  let r = f.next_reg in
  f.next_reg <- r + 1;
  Reg.of_int r

let fresh_label f =
  let n = f.next_label in
  f.next_label <- n + 1;
  Printf.sprintf "%s.L%d" f.name n

let add_block f b = f.blocks <- f.blocks @ [ b ]

let insert_blocks_after f label blocks =
  let rec go = function
    | [] -> raise Not_found
    | (b : Block.t) :: rest ->
      if String.equal b.Block.label label then b :: (blocks @ rest)
      else b :: go rest
  in
  f.blocks <- go f.blocks

(* The first block of a label wins, as with a search of the layout.  The
   index is published whole through the atomic, so a domain that reads
   it also reads its filled table. *)
let index f =
  let blocks = f.blocks in
  let ix = Atomic.get f.index in
  if ix.over == blocks then ix.by_label
  else begin
    let by_label = Hashtbl.create (List.length blocks) in
    List.iter
      (fun (b : Block.t) ->
        if not (Hashtbl.mem by_label b.Block.label) then
          Hashtbl.add by_label b.Block.label b)
      blocks;
    Atomic.set f.index { over = blocks; by_label };
    by_label
  end

let find_block_opt f label = Hashtbl.find_opt (index f) label

let find_block f label =
  match find_block_opt f label with
  | Some b -> b
  | None -> raise Not_found

let jtab f id =
  match List.nth_opt f.jtables id with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Func.jtab: bad table id %d in %s" id f.name)

let add_jtable f targets =
  let id = List.length f.jtables in
  f.jtables <- f.jtables @ [ targets ];
  id

let successors f b = Block.successors ~jtab:(jtab f) b

let predecessors f =
  let preds = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace preds b.Block.label []) f.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let existing = try Hashtbl.find preds s with Not_found -> [] in
          Hashtbl.replace preds s (b.Block.label :: existing))
        (successors f b))
    f.blocks;
  Hashtbl.filter_map_inplace (fun _ ps -> Some (List.rev ps)) preds;
  preds

let iter_blocks f g = List.iter g f.blocks

let iter_regs g f =
  let insn i =
    List.iter g (Insn.defs i);
    List.iter g (Insn.uses i)
  in
  List.iter g f.params;
  List.iter
    (fun (b : Block.t) ->
      List.iter insn b.Block.insns;
      Option.iter insn b.Block.term.Block.delay;
      match b.Block.term.Block.kind with
      | Block.Switch (r, _, _)
      | Block.Jtab (r, _)
      | Block.Ret (Some (Operand.Reg r)) ->
        g r
      | Block.Br _ | Block.Jmp _ | Block.Ret _ -> ())
    f.blocks

let rec layout_counts acc = function
  | [] -> acc
  | [ b ] -> acc + Block.static_insn_count ~layout_next:None b
  | b :: (next :: _ as rest) ->
    layout_counts
      (acc + Block.static_insn_count ~layout_next:(Some next.Block.label) b)
      rest

let static_insn_count f = layout_counts 0 f.blocks

let reachable f =
  let seen = Hashtbl.create 64 in
  let rec go label =
    if not (Hashtbl.mem seen label) then begin
      Hashtbl.replace seen label ();
      match find_block_opt f label with
      | None -> ()
      | Some b -> List.iter go (successors f b)
    end
  in
  (match f.blocks with b :: _ -> go b.Block.label | [] -> ());
  seen

let pp ppf f =
  Format.fprintf ppf "function %s(%a):@\n" f.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Reg.pp)
    f.params;
  List.iteri
    (fun id targets ->
      Format.fprintf ppf "  table T%d: [%s]@\n" id
        (String.concat "; " (Array.to_list targets)))
    f.jtables;
  List.iter (fun b -> Block.pp ppf b) f.blocks
