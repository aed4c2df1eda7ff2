type t = (int * int) list

let empty = []
let full = [ (min_int, max_int) ]

let norm s =
  let s = List.filter (fun (lo, hi) -> lo <= hi) s in
  let s = List.sort compare s in
  let rec merge = function
    | (a, b) :: (c, d) :: rest when b = max_int || c <= b + 1 ->
      merge ((a, max b d) :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  merge s

let of_interval lo hi = norm [ (lo, hi) ]
let single c = [ (c, c) ]

let of_iv = function Iv.Bot -> [] | Iv.Iv (lo, hi) -> [ (lo, hi) ]

let is_empty s = s = []
let equal (a : t) (b : t) = a = b
let mem x s = List.exists (fun (lo, hi) -> lo <= x && x <= hi) s

let inter a b =
  List.concat_map
    (fun (alo, ahi) ->
      List.filter_map
        (fun (blo, bhi) ->
          let lo = max alo blo and hi = min ahi bhi in
          if lo > hi then None else Some (lo, hi))
        b)
    a
  |> norm

let diff a b =
  let sub_one (lo, hi) (blo, bhi) =
    if bhi < lo || blo > hi then [ (lo, hi) ]
    else
      (if blo > lo then [ (lo, blo - 1) ] else [])
      @ if bhi < hi then [ (bhi + 1, hi) ] else []
  in
  List.fold_left
    (fun acc cut -> List.concat_map (fun iv -> sub_one iv cut) acc)
    a b
  |> norm

let union a b = norm (a @ b)
let subset a b = is_empty (diff a b)

let of_cond cond c =
  match cond with
  | Mir.Cond.Eq -> single c
  | Mir.Cond.Ne ->
    norm
      ((if c = min_int then [] else [ (min_int, c - 1) ])
      @ if c = max_int then [] else [ (c + 1, max_int) ])
  | Mir.Cond.Lt -> if c = min_int then [] else [ (min_int, c - 1) ]
  | Mir.Cond.Le -> [ (min_int, c) ]
  | Mir.Cond.Gt -> if c = max_int then [] else [ (c + 1, max_int) ]
  | Mir.Cond.Ge -> [ (c, max_int) ]

let as_interval = function [ (lo, hi) ] -> Some (lo, hi) | _ -> None

let pp ppf s =
  let one ppf (lo, hi) =
    let b ppf x =
      if x = min_int then Format.pp_print_string ppf "-oo"
      else if x = max_int then Format.pp_print_string ppf "+oo"
      else Format.pp_print_int ppf x
    in
    if lo = hi then Format.fprintf ppf "%a" b lo
    else Format.fprintf ppf "%a..%a" b lo b hi
  in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") one)
    s

let show s = Format.asprintf "%a" pp s
