type t =
  | Int of int
  | Float of float
  | String of string
  | Ident of string
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
  | Assign
  | Op_assign of Runtime.Ops.binop
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

let binops : (t * Runtime.Ops.binop) list =
  [ (Plus, Add); (Minus, Sub); (Star, Mul); (Slash, Div); (Percent, Mod); (Amp, Bit_and);
    (Pipe, Bit_or); (Caret, Bit_xor); (Shl, Shl); (Shr, Shr); (Ushr, Ushr) ]

let cmps : (t * Runtime.Ops.cmp) list =
  [ (Lt, Lt); (Le, Le); (Gt, Gt); (Ge, Ge); (Eq_eq, Eq); (Bang_eq, Neq); (Eq_eq_eq, Strict_eq);
    (Bang_eq_eq, Strict_neq) ]

let unops : (t * Runtime.Ops.unop) list =
  [ (Minus, Neg); (Bang, Not); (Tilde, Bit_not); (Kw_typeof, Typeof); (Plus, To_number) ]

let updates : (t * Runtime.Ops.binop) list = [ (Plus_plus, Add); (Minus_minus, Sub) ]

let spellings =
  let base =
    [ ("function", Kw_function); ("var", Kw_var); ("if", Kw_if); ("else", Kw_else);
      ("while", Kw_while); ("do", Kw_do); ("for", Kw_for); ("return", Kw_return);
      ("break", Kw_break); ("continue", Kw_continue); ("true", Kw_true); ("false", Kw_false);
      ("null", Kw_null); ("undefined", Kw_undefined); ("in", Kw_in); ("typeof", Kw_typeof);
      ("new", Kw_new); ("switch", Kw_switch); ("case", Kw_case); ("default", Kw_default);
      ("(", Lparen); (")", Rparen); ("{", Lbrace); ("}", Rbrace); ("[", Lbracket);
      ("]", Rbracket); (",", Comma); (";", Semi); (".", Dot); (":", Colon); ("?", Question);
      ("=", Assign); ("+", Plus); ("-", Minus); ("*", Star); ("/", Slash); ("%", Percent);
      ("++", Plus_plus); ("--", Minus_minus); ("==", Eq_eq); ("!=", Bang_eq);
      ("===", Eq_eq_eq); ("!==", Bang_eq_eq); ("<", Lt); ("<=", Le); (">", Gt); (">=", Ge);
      ("&&", Amp_amp); ("||", Pipe_pipe); ("!", Bang); ("&", Amp); ("|", Pipe); ("^", Caret);
      ("~", Tilde); ("<<", Shl); (">>", Shr); (">>>", Ushr) ]
  in
  let spelling tok = fst (List.find (fun (_, t) -> t == tok) base) in
  (* Every binary arithmetic operator [op] has the compound assignment [op=]. *)
  base @ List.map (fun (tok, op) -> (spelling tok ^ spelling Assign, Op_assign op)) binops

let to_string = function
  | Int n -> string_of_int n
  | Float f -> string_of_float f
  | String s -> Printf.sprintf "%S" s
  | Ident s -> s
  | Eof -> "<eof>"
  | tok -> fst (List.find (fun (_, t) -> t = tok) spellings)
