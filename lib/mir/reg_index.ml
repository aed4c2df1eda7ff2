(* the distinct register ids, sorted: a register's slot is its position *)
type t = int array

let of_func fn =
  let ids = ref [] in
  Func.iter_regs (fun r -> ids := Reg.to_int r :: !ids) fn;
  Array.of_list (List.sort_uniq Int.compare !ids)

let size = Array.length

let slot ids r =
  let r = Reg.to_int r in
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let m = ids.(mid) in
      if m = r then mid
      else if m < r then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length ids)

let merge f a b =
  let n = Array.length a in
  let rec scan k =
    if k = n then a
    else
      let x = a.(k) in
      let y = f x b.(k) in
      if y == x then scan (k + 1)
      else begin
        let c = Array.copy a in
        c.(k) <- y;
        for j = k + 1 to n - 1 do
          c.(j) <- f a.(j) b.(j)
        done;
        c
      end
  in
  scan 0
