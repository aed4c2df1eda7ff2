(** MiniC abstract syntax.

    MiniC is the C subset needed by the paper's workloads: a single [int]
    value type ([char] is an alias), global scalars and arrays, functions,
    the full C statement repertoire including [switch] with fall-through,
    and short-circuit boolean operators.  There are no pointers; arrays are
    referred to by name. *)

type binop =
  | Add | Sub | Mul | Div | Rem
  | BAnd | BOr | BXor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | LAnd | LOr  (** short-circuit *)

type unop = Neg | LNot | BNot

type lvalue =
  | Lvar of string
  | Lindex of string * expr  (** array element *)

and expr = {
  desc : expr_desc;
  eloc : Srcloc.t;
}

and expr_desc =
  | Num of int
  | Str of string
  | Var of string
  | Index of string * expr
  | Call of string * expr list
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Assign of lvalue * expr
  | Op_assign of binop * lvalue * expr  (** [+=] etc.; binop is arithmetic *)
  | Incr of { pre : bool; up : bool; lv : lvalue }
      (** [++x], [x++], [--x], [x--] *)
  | Ternary of expr * expr * expr

type stmt = {
  sdesc : stmt_desc;
  sloc : Srcloc.t;
}

and stmt_desc =
  | Sexpr of expr
  | Sif of expr * stmt * stmt option
  | Swhile of expr * stmt
  | Sdo of stmt * expr
  | Sfor of expr option * expr option * expr option * stmt
  | Sswitch of expr * switch_group list
  | Sbreak
  | Scontinue
  | Sreturn of expr option
  | Sblock of block_item list

and switch_group = {
  labels : case_label list;  (** labels attached to this group *)
  body : stmt list;          (** falls through to the next group *)
}

and case_label =
  | Case of expr  (** must be a constant expression *)
  | Default

and block_item =
  | Local of local_decl
  | Stmt of stmt

and local_decl = {
  lname : string;
  linit : expr option;
  lloc : Srcloc.t;
}

type func_decl = {
  fname : string;
  fparams : string list;
  fret_void : bool;
  fbody : block_item list;
  floc : Srcloc.t;
}

type global_init =
  | Gscalar of expr           (** constant expression *)
  | Gstring of string
  | Glist of expr list        (** constant expressions *)

type global_decl = {
  gname : string;
  garray : expr option option;
      (** [None] = scalar; [Some None] = array with size from initialiser;
          [Some (Some e)] = array of constant size [e] *)
  ginit : global_init option;
  gloc : Srcloc.t;
}

type decl =
  | Func of func_decl
  | Global of global_decl

type program = decl list

val pp_expr : Format.formatter -> expr -> unit
