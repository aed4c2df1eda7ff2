type t =
  | Reg of Reg.t
  | Imm of int

let equal a b =
  match a, b with
  | Reg r1, Reg r2 -> Reg.equal r1 r2
  | Imm i1, Imm i2 -> Int.equal i1 i2
  | Reg _, Imm _ | Imm _, Reg _ -> false

let compare a b =
  match a, b with
  | Reg r1, Reg r2 -> Reg.compare r1 r2
  | Imm i1, Imm i2 -> Int.compare i1 i2
  | Reg _, Imm _ -> -1
  | Imm _, Reg _ -> 1

let pp ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm i -> Format.fprintf ppf "%d" i

let show o = Format.asprintf "%a" pp o
let reg n = Reg (Reg.of_int n)
let imm i = Imm i
let as_reg = function Reg r -> Some r | Imm _ -> None
