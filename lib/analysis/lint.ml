type kind =
  | Unreachable_block
  | Branch_always_taken
  | Branch_never_taken
  | Subsumed_arm
  | Overlapping_arms
  | Not_reorderable
  | Prediction_diverges

type diag = {
  func : string;
  label : string;
  kind : kind;
  message : string;
}

let kind_name = function
  | Unreachable_block -> "unreachable-block"
  | Branch_always_taken -> "branch-always-taken"
  | Branch_never_taken -> "branch-never-taken"
  | Subsumed_arm -> "subsumed-arm"
  | Overlapping_arms -> "overlapping-arms"
  | Not_reorderable -> "not-reorderable"
  | Prediction_diverges -> "prediction-diverges"

(* --- range-test chains ------------------------------------------------- *)

(* A block participates in an arm chain when its last instruction
   compares a register against a constant and the terminator branches on
   the result.  The walk tracks the exact set of values still flowing
   past each arm, so punctured sets ([Ne] arms) stay precise where the
   interval facts alone would widen to top. *)

let arm_shape b =
  match (List.rev b.Mir.Block.insns, b.Mir.Block.term.Mir.Block.kind) with
  | ( Mir.Insn.Cmp (Mir.Operand.Reg v, Mir.Operand.Imm c) :: _,
      Mir.Block.Br (cond, taken, fall) )
    when taken <> fall -> Some (v, c, cond, taken, fall)
  | _ -> None

let defines v insn = List.exists (Mir.Reg.equal v) (Mir.Insn.defs insn)

(* The fall-through block [next] continues a chain on [v] rooted at
   [cur] when it is a pure re-test of the same unmodified variable and
   nothing else jumps into the middle of the chain. *)
let chain_continues preds cur next v =
  match arm_shape next with
  | Some (v', _, _, _, _) when Mir.Reg.equal v v' ->
    (match Hashtbl.find_opt preds next.Mir.Block.label with
    | Some [ p ] when p = cur.Mir.Block.label ->
      (not (List.exists (defines v) next.Mir.Block.insns))
      && (match cur.Mir.Block.term.Mir.Block.delay with
         | Some i when not cur.Mir.Block.term.Mir.Block.annul ->
           not (defines v i)
         | _ -> true)
    | _ -> false)
  | _ -> false

let check_arms fn intervals =
  let preds = Mir.Func.predecessors fn in
  let continuation = Hashtbl.create 16 in
  (* mark every block that a chain walk will reach from an earlier head,
     so it is not reported twice as its own chain *)
  Mir.Func.iter_blocks fn (fun b ->
      match arm_shape b with
      | Some (v, _, _, _, fall) -> (
        match Mir.Func.find_block_opt fn fall with
        | Some next when chain_continues preds b next v ->
          Hashtbl.replace continuation fall ()
        | _ -> ())
      | None -> ());
  let diags = ref [] in
  let emit label kind message =
    diags := { func = fn.Mir.Func.name; label; kind; message } :: !diags
  in
  let walk_chain head v =
    let cmp_index b = List.length b.Mir.Block.insns - 1 in
    let init =
      match Intervals.reg_before intervals head (cmp_index head) v with
      | Iv.Bot -> Iset.empty
      | iv -> Iset.of_iv iv
    in
    let rec go b remaining claimed =
      match arm_shape b with
      | None -> ()
      | Some (v', c, cond, _, fall) ->
        let test = Iset.of_cond cond c in
        let taken = Iset.inter remaining test in
        let overlap = Iset.inter claimed test in
        if Iset.is_empty taken then
          emit b.Mir.Block.label Subsumed_arm
            (Format.asprintf
               "arm %a %a %d can never fire: values reaching it are %a"
               Mir.Reg.pp v' Mir.Cond.pp cond c Iset.pp remaining)
        else begin
          if not (Iset.is_empty overlap) then
            emit b.Mir.Block.label Overlapping_arms
              (Format.asprintf
                 "arm %a %a %d overlaps earlier arms on %a; it only fires for %a"
                 Mir.Reg.pp v' Mir.Cond.pp cond c Iset.pp overlap Iset.pp taken);
          if (not (Iset.is_empty remaining)) && Iset.subset remaining test then
            emit b.Mir.Block.label Branch_always_taken
              (Format.asprintf
                 "arm %a %a %d is taken by every remaining value %a"
                 Mir.Reg.pp v' Mir.Cond.pp cond c Iset.pp remaining)
        end;
        let remaining = Iset.diff remaining test in
        let claimed = Iset.union claimed test in
        (match Mir.Func.find_block_opt fn fall with
        | Some next when chain_continues preds b next v ->
          go next remaining claimed
        | _ -> ())
    in
    go head init Iset.empty
  in
  Mir.Func.iter_blocks fn (fun b ->
      if not (Hashtbl.mem continuation b.Mir.Block.label) then
        match arm_shape b with
        | Some (v, _, _, _, _) when Intervals.reachable intervals b.Mir.Block.label ->
          walk_chain b v
        | _ -> ());
  List.rev !diags

(* --- whole-function checks --------------------------------------------- *)

let check_func fn intervals =
  let arm_diags = check_arms fn intervals in
  let armed = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace armed d.label ()) arm_diags;
  let syntactic = Mir.Func.reachable fn in
  let diags = ref [] in
  let emit label kind message =
    diags := { func = fn.Mir.Func.name; label; kind; message } :: !diags
  in
  Mir.Func.iter_blocks fn (fun b ->
      let label = b.Mir.Block.label in
      if Hashtbl.mem syntactic label && not (Intervals.reachable intervals label)
      then
        emit label Unreachable_block
          "block is statically unreachable: every path to it crosses an \
           infeasible branch edge"
      else if not (Hashtbl.mem armed label) then
        match (b.Mir.Block.term.Mir.Block.kind, Intervals.branch_fate intervals b) with
        | Mir.Block.Br (cond, _, _), `Always_taken ->
          emit label Branch_always_taken
            (Format.asprintf "branch %a is always taken:%s" Mir.Cond.pp cond
               (match Intervals.cc_at_term intervals b with
               | Some (a, bv) ->
                 Format.asprintf " operands are %a and %a" Iv.pp a Iv.pp bv
               | None -> ""))
        | Mir.Block.Br (cond, _, _), `Never_taken ->
          emit label Branch_never_taken
            (Format.asprintf "branch %a is never taken:%s" Mir.Cond.pp cond
               (match Intervals.cc_at_term intervals b with
               | Some (a, bv) ->
                 Format.asprintf " operands are %a and %a" Iv.pp a Iv.pp bv
               | None -> ""))
        | _ -> ());
  List.rev !diags @ arm_diags

let check_program p =
  List.concat_map
    (fun fn -> check_func fn (Intervals.analyze fn))
    p.Mir.Program.funcs

(* --- static-vs-trained divergence -------------------------------------- *)

(* Unlike the families above this one is {e advisory}, not proved: the
   static heuristics predict a direction, a trained profile observed
   one, and the diagnostic flags two-way branches where they firmly
   disagree.  It never feeds the fuzzer's trace cross-check. *)

(* fewest observations a branch needs, and how far both probabilities
   must sit from the coin flip *)
let min_count = 8
let margin = 0.1

let divergence (p : Mir.Program.t) ~observed =
  List.concat_map
    (fun (fn : Mir.Func.t) ->
      let heur = Heur.analyze fn in
      let diags = ref [] in
      Mir.Func.iter_blocks fn (fun b ->
          match b.Mir.Block.term.Mir.Block.kind with
          | Mir.Block.Br (_, taken, fall) when not (String.equal taken fall) -> (
            match observed ~func:fn.Mir.Func.name ~label:b.Mir.Block.label with
            | Some (t, nt) when t + nt >= min_count ->
              let predicted = Heur.taken_prob heur b.Mir.Block.label in
              let measured = float_of_int t /. float_of_int (t + nt) in
              if
                predicted -. 0.5 >= margin && 0.5 -. measured >= margin
                || 0.5 -. predicted >= margin && measured -. 0.5 >= margin
              then
                diags :=
                  {
                    func = fn.Mir.Func.name;
                    label = b.Mir.Block.label;
                    kind = Prediction_diverges;
                    message =
                      Printf.sprintf
                        "static prediction says taken with p=%.2f, but the \
                         trained profile observed %d taken / %d fall-through \
                         (%.0f%% taken)"
                        predicted t nt (100. *. measured);
                  }
                  :: !diags
            | _ -> ())
          | _ -> ());
      List.rev !diags)
    p.Mir.Program.funcs

let pp_diag ppf d =
  Format.fprintf ppf "%s:%s: [%s] %s" d.func d.label (kind_name d.kind)
    d.message

let to_json diags =
  Json.to_string ~compact:false
    (Json.Arr
       (List.map
          (fun d ->
            Json.Obj
              [
                ("func", Json.Str d.func);
                ("label", Json.Str d.label);
                ("kind", Json.Str (kind_name d.kind));
                ("message", Json.Str d.message);
              ])
          diags))
  ^ "\n"
