(* Abstract syntax of MiniJS, the JavaScript subset executed by the VM.

   The subset covers what the paper's benchmarks exercise: numbers with
   int/double distinction, strings, booleans, null/undefined, arrays,
   object literals, first-class functions and closures, the full C-like
   operator set including JavaScript's ==/=== split, typeof, and
   structured control flow. *)

type expr =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null
  | Undefined
  | Var of string
  | Binop of Runtime.Ops.binop * expr * expr
  | Cmp of Runtime.Ops.cmp * expr * expr
  | Unop of Runtime.Ops.unop * expr
  | And of expr * expr
  | Or of expr * expr
  | Cond of expr * expr * expr
  | Assign of lhs * expr
  | Op_assign of Runtime.Ops.binop * lhs * expr
  | Update of Runtime.Ops.binop * bool * lhs  (* [Add] for ++, [Sub] for --; prefix?; target *)
  | Call of expr * expr list
  | Method_call of expr * string * expr list
  | Index of expr * expr
  | Prop of expr * string
  | Array_lit of expr list
  | Object_lit of (string * expr) list
  | Func of func
  | New of string * expr list

and lhs = L_var of string | L_index of expr * expr | L_prop of expr * string

and stmt =
  | Expr_stmt of expr
  | Var_decl of (string * expr option) list
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | For of stmt option * expr option * expr option * stmt list
  | For_in of string * expr * stmt list
      (* enumeration variable, object expression, body; the variable is
         declared in the enclosing function scope, as [var] would *)
  | Return of expr option
  | Break
  | Continue
  | Switch of expr * (expr option * stmt list) list
      (* discriminant, cases in source order; None = default clause *)
  | Func_decl of func
  | Block of stmt list

and func = { name : string option; params : string list; body : stmt list; fpos : Pos.t }

type program = stmt list

(* Operators and keywords print with their {!Token.spellings}. *)
let spell tok = Token.to_string tok
let spell_op table op = spell (fst (List.find (fun (_, o) -> o = op) table))

let rec pp_expr fmt expr =
  let open Format in
  match expr with
  | Int n -> fprintf fmt "%d" n
  | Float f -> fprintf fmt "%g" f
  | Str s -> fprintf fmt "%S" s
  | Bool b -> fprintf fmt "%b" b
  | Null -> pp_print_string fmt (spell Token.Kw_null)
  | Undefined -> pp_print_string fmt (spell Token.Kw_undefined)
  | Var x -> pp_print_string fmt x
  | Binop (op, a, b) -> fprintf fmt "(%a %s %a)" pp_expr a (spell_op Token.binops op) pp_expr b
  | Cmp (op, a, b) -> fprintf fmt "(%a %s %a)" pp_expr a (spell_op Token.cmps op) pp_expr b
  | Unop (Runtime.Ops.Typeof, a) -> fprintf fmt "(%s %a)" (spell Token.Kw_typeof) pp_expr a
  | Unop (op, a) -> fprintf fmt "(%s%a)" (spell_op Token.unops op) pp_expr a
  | And (a, b) -> fprintf fmt "(%a %s %a)" pp_expr a (spell Token.Amp_amp) pp_expr b
  | Or (a, b) -> fprintf fmt "(%a %s %a)" pp_expr a (spell Token.Pipe_pipe) pp_expr b
  | Cond (c, t, e) ->
    fprintf fmt "(%a %s %a %s %a)" pp_expr c (spell Token.Question) pp_expr t (spell Token.Colon)
      pp_expr e
  | Assign (l, e) -> fprintf fmt "%a %s %a" pp_lhs l (spell Token.Assign) pp_expr e
  | Op_assign (op, l, e) -> fprintf fmt "%a %s %a" pp_lhs l (spell (Token.Op_assign op)) pp_expr e
  | Update (op, true, l) -> fprintf fmt "%s%a" (spell_op Token.updates op) pp_lhs l
  | Update (op, false, l) -> fprintf fmt "%a%s" pp_lhs l (spell_op Token.updates op)
  | Call (f, args) -> fprintf fmt "%a(%a)" pp_expr f pp_args args
  | Method_call (o, m, args) -> fprintf fmt "%a.%s(%a)" pp_expr o m pp_args args
  | Index (a, i) -> fprintf fmt "%a[%a]" pp_expr a pp_expr i
  | Prop (o, p) -> fprintf fmt "%a.%s" pp_expr o p
  | Array_lit es -> fprintf fmt "[%a]" pp_args es
  | Object_lit fields ->
    fprintf fmt "{%a}"
      (pp_print_list
         ~pp_sep:(fun fmt () -> pp_print_string fmt ", ")
         (fun fmt (k, v) -> fprintf fmt "%s: %a" k pp_expr v))
      fields
  | Func f ->
    fprintf fmt "%s %s(%s) {...}" (spell Token.Kw_function)
      (Option.value f.name ~default:"")
      (String.concat ", " f.params)
  | New (ctor, args) -> fprintf fmt "%s %s(%a)" (spell Token.Kw_new) ctor pp_args args

and pp_args fmt args =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    pp_expr fmt args

and pp_lhs fmt = function
  | L_var x -> Format.pp_print_string fmt x
  | L_index (a, i) -> Format.fprintf fmt "%a[%a]" pp_expr a pp_expr i
  | L_prop (o, p) -> Format.fprintf fmt "%a.%s" pp_expr o p

let expr_to_string e = Format.asprintf "%a" pp_expr e
