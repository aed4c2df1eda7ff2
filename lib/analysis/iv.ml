type t = Bot | Iv of int * int

let ninf = min_int
let pinf = max_int

let top = Iv (ninf, pinf)
let bot = Bot
let const c = Iv (c, c)
let make lo hi = if lo > hi then Bot else Iv (lo, hi)
let is_bot = function Bot -> true | Iv _ -> false
let is_const = function Iv (lo, hi) when lo = hi -> Some lo | _ -> None
let mem x = function Bot -> false | Iv (lo, hi) -> lo <= x && x <= hi
let equal a b =
  match (a, b) with
  | Bot, Bot -> true
  | Iv (al, ah), Iv (bl, bh) -> al = bl && ah = bh
  | _ -> false

let subset a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Bot -> false
  | Iv (al, ah), Iv (bl, bh) -> bl <= al && ah <= bh

(* join, meet and widen return their left operand itself when it is
   already the result, so callers can tell "nothing moved" by [==] *)
let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Iv (al, ah), Iv (bl, bh) ->
    if al <= bl && bh <= ah then a else Iv (Int.min al bl, Int.max ah bh)

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (al, ah), Iv (bl, bh) ->
    if bl <= al && ah <= bh then a else make (Int.max al bl) (Int.min ah bh)

let widen old next =
  match (old, next) with
  | Bot, x -> x
  | x, Bot -> x
  | Iv (ol, oh), Iv (nl, nh) ->
    let lo = if nl < ol then ninf else nl
    and hi = if nh > oh then pinf else nh in
    if lo = ol && hi = oh then old else Iv (lo, hi)

(* bound arithmetic: the infinities absorb, finite sums saturate *)
let add_bound a b =
  if a = ninf || b = ninf then ninf
  else if a = pinf || b = pinf then pinf
  else
    let s = a + b in
    if a > 0 && b > 0 && s < 0 then pinf
    else if a < 0 && b < 0 && s >= 0 then ninf
    else s

let neg_bound x = if x = ninf then pinf else if x = pinf then ninf else -x

let add a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (al, ah), Iv (bl, bh) -> Iv (add_bound al bl, add_bound ah bh)

let neg = function Bot -> Bot | Iv (lo, hi) -> Iv (neg_bound hi, neg_bound lo)
let sub a b = add a (neg b)

let mul_bound a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / a <> b then if (a > 0) = (b > 0) then pinf else ninf else p

let mul a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (al, ah), Iv (bl, bh) ->
    if al = ninf || ah = pinf || bl = ninf || bh = pinf then top
    else begin
      let ps = [ mul_bound al bl; mul_bound al bh; mul_bound ah bl; mul_bound ah bh ] in
      Iv (List.fold_left Int.min pinf ps, List.fold_left Int.max ninf ps)
    end

let rem a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (al, ah), _ -> (
    match is_const b with
    | Some c when c <> 0 && c <> ninf && c <> pinf ->
      let m = abs c - 1 in
      if al >= -m && ah <= m then a (* |x| < |c|: the remainder is x itself *)
      else if al >= 0 then Iv (0, m)
      else if ah <= 0 then Iv (-m, 0)
      else Iv (-m, m)
    | _ -> top)

let logical_not v =
  match v with
  | Bot -> Bot
  | _ ->
    if not (mem 0 v) then const 0
    else if is_const v = Some 0 then const 1
    else Iv (0, 1)

let of_cond cond c =
  match cond with
  | Mir.Cond.Eq -> const c
  | Mir.Cond.Ne -> top (* a punctured line is not an interval *)
  | Mir.Cond.Lt -> if c = ninf then Bot else Iv (ninf, c - 1)
  | Mir.Cond.Le -> Iv (ninf, c)
  | Mir.Cond.Gt -> if c = pinf then Bot else Iv (c + 1, pinf)
  | Mir.Cond.Ge -> Iv (c, pinf)

let always cond a b =
  match (a, b) with
  | Bot, _ | _, Bot -> false
  | Iv (al, ah), Iv (bl, bh) -> (
    match cond with
    | Mir.Cond.Eq -> al = ah && bl = bh && al = bl
    | Mir.Cond.Ne -> is_bot (meet a b)
    | Mir.Cond.Lt -> ah < bl
    | Mir.Cond.Le -> ah <= bl
    | Mir.Cond.Gt -> al > bh
    | Mir.Cond.Ge -> al >= bh)

let never cond a b =
  match (a, b) with
  | Bot, _ | _, Bot -> false
  | _ -> always (Mir.Cond.negate cond) a b

let pp ppf v =
  match v with
  | Bot -> Format.pp_print_string ppf "_|_"
  | Iv (lo, hi) ->
    let b ppf x =
      if x = ninf then Format.pp_print_string ppf "-oo"
      else if x = pinf then Format.pp_print_string ppf "+oo"
      else Format.pp_print_int ppf x
    in
    if lo = hi then Format.fprintf ppf "[%a]" b lo
    else Format.fprintf ppf "[%a,%a]" b lo b hi

let show v = Format.asprintf "%a" pp v
