type binop =
  | Add | Sub | Mul | Div | Rem
  | BAnd | BOr | BXor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | LAnd | LOr

type unop = Neg | LNot | BNot

type lvalue =
  | Lvar of string
  | Lindex of string * expr

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
  | Op_assign of binop * lvalue * expr
  | Incr of { pre : bool; up : bool; lv : lvalue }
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
  labels : case_label list;
  body : stmt list;
}

and case_label =
  | Case of expr
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
  | Gscalar of expr
  | Gstring of string
  | Glist of expr list

type global_decl = {
  gname : string;
  garray : expr option option;
  ginit : global_init option;
  gloc : Srcloc.t;
}

type decl =
  | Func of func_decl
  | Global of global_decl

type program = decl list

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | BAnd -> "&" | BOr -> "|" | BXor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | LAnd -> "&&" | LOr -> "||"

let unop_name = function Neg -> "-" | LNot -> "!" | BNot -> "~"

let rec pp_lvalue ppf = function
  | Lvar v -> Format.pp_print_string ppf v
  | Lindex (a, e) -> Format.fprintf ppf "%s[%a]" a pp_expr e

and pp_expr ppf e =
  match e.desc with
  | Num n -> Format.fprintf ppf "%d" n
  | Str s -> Format.fprintf ppf "%S" s
  | Var v -> Format.pp_print_string ppf v
  | Index (a, i) -> Format.fprintf ppf "%s[%a]" a pp_expr i
  | Call (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp_expr)
      args
  | Unary (op, e) -> Format.fprintf ppf "%s(%a)" (unop_name op) pp_expr e
  | Binary (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_name op) pp_expr b
  | Assign (lv, e) -> Format.fprintf ppf "%a = %a" pp_lvalue lv pp_expr e
  | Op_assign (op, lv, e) ->
    Format.fprintf ppf "%a %s= %a" pp_lvalue lv (binop_name op) pp_expr e
  | Incr { pre; up; lv } ->
    let op = if up then "++" else "--" in
    if pre then Format.fprintf ppf "%s%a" op pp_lvalue lv
    else Format.fprintf ppf "%a%s" pp_lvalue lv op
  | Ternary (c, t, f) ->
    Format.fprintf ppf "(%a ? %a : %a)" pp_expr c pp_expr t pp_expr f
