(** Instruction operands: a register or an immediate constant. *)

type t =
  | Reg of Reg.t
  | Imm of int

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val show : t -> string

val reg : int -> t
(** [reg n] is [Reg (Reg.of_int n)]. *)

val imm : int -> t

val as_reg : t -> Reg.t option
