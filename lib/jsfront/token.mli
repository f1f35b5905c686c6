(** Lexical tokens of MiniJS. *)

type t =
  | Int of int
  | Float of float
  | String of string
  | Ident of string
  (* Keywords *)
  | Kw_function
  | Kw_var
  | Kw_if
  | Kw_else
  | Kw_while
  | Kw_do
  | Kw_for
  | Kw_return
  | Kw_break
  | Kw_continue
  | Kw_true
  | Kw_false
  | Kw_null
  | Kw_undefined
  | Kw_in
  | Kw_typeof
  | Kw_new
  | Kw_switch
  | Kw_case
  | Kw_default
  (* Punctuation *)
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Comma
  | Semi
  | Dot
  | Colon
  | Question
  (* Operators *)
  | Assign
  | Op_assign of Runtime.Ops.binop  (** [op=] for each of {!binops} *)
  | Plus
  | Minus
  | Star
  | Slash
  | Percent
  | Plus_plus
  | Minus_minus
  | Eq_eq
  | Bang_eq
  | Eq_eq_eq
  | Bang_eq_eq
  | Lt
  | Le
  | Gt
  | Ge
  | Amp_amp
  | Pipe_pipe
  | Bang
  | Amp
  | Pipe
  | Caret
  | Tilde
  | Shl
  | Shr
  | Ushr
  | Eof

(** {1 The one spelling table}

    Each keyword and operator is spelled once, here; the lexer matches
    source against this table and {!to_string} prints from it. *)

val spellings : (string * t) list
(** Every keyword and operator with its spelling: the keywords, the
    punctuation, the operators, and [op=] for each of {!binops}. *)

(** {1 The operators the tokens denote} *)

val binops : (t * Runtime.Ops.binop) list
(** The binary arithmetic operators, each of which also has an [op=]
    compound assignment. *)

val cmps : (t * Runtime.Ops.cmp) list
val unops : (t * Runtime.Ops.unop) list
(** Prefix operators: [Minus] is [Neg] and [Plus] is [To_number] here. *)

val updates : (t * Runtime.Ops.binop) list
(** [Plus_plus] is [Add] and [Minus_minus] is [Sub]. *)

val to_string : t -> string
