exception Error of Pos.t * string

type state = { tokens : (Token.t * Pos.t) array; mutable index : int }

let current st = fst st.tokens.(st.index)
let current_pos st = snd st.tokens.(st.index)

let fail st msg =
  raise
    (Error
       ( current_pos st,
         Printf.sprintf "%s (found %s)" msg (Token.to_string (current st)) ))

let advance st = if st.index < Array.length st.tokens - 1 then st.index <- st.index + 1

let eat st tok =
  if current st = tok then advance st
  else fail st (Printf.sprintf "expected %s" (Token.to_string tok))

let accept st tok =
  if current st = tok then begin
    advance st;
    true
  end
  else false

let expect_ident st =
  match current st with
  | Token.Ident name ->
    advance st;
    name
  | _ -> fail st "expected identifier"

(* Convert an expression to an assignable left-hand side. *)
let lhs_of_expr st = function
  | Ast.Var x -> Ast.L_var x
  | Ast.Index (a, i) -> Ast.L_index (a, i)
  | Ast.Prop (o, p) -> Ast.L_prop (o, p)
  | _ -> fail st "invalid assignment target"

(* Binary operators, loosest-binding level first. Every level is
   left-associative. *)
let binary_levels =
  let binop tok =
    let op = List.assq tok Token.binops in
    (tok, fun a b -> Ast.Binop (op, a, b))
  in
  let cmp tok =
    let op = List.assq tok Token.cmps in
    (tok, fun a b -> Ast.Cmp (op, a, b))
  in
  Token.
    [ [ (Pipe_pipe, fun a b -> Ast.Or (a, b)) ];
      [ (Amp_amp, fun a b -> Ast.And (a, b)) ];
      [ binop Pipe ];
      [ binop Caret ];
      [ binop Amp ];
      List.map cmp [ Eq_eq; Bang_eq; Eq_eq_eq; Bang_eq_eq ];
      List.map cmp [ Lt; Le; Gt; Ge ];
      List.map binop [ Shl; Shr; Ushr ];
      List.map binop [ Plus; Minus ];
      List.map binop [ Star; Slash; Percent ] ]

(* Each binary operator token with its level and constructor. The tokens
   are constant constructors, so [List.assq] finds them by identity. *)
let binary_ops =
  List.concat (List.mapi (fun level -> List.map (fun (tok, mk) -> (tok, (level, mk)))) binary_levels)

let rec parse_expr st = parse_assignment st

and parse_assignment st =
  let left = parse_conditional st in
  let assign mk =
    advance st;
    let rhs = parse_assignment st in
    mk (lhs_of_expr st left) rhs
  in
  match current st with
  | Token.Assign -> assign (fun l r -> Ast.Assign (l, r))
  | Token.Op_assign op -> assign (fun l r -> Ast.Op_assign (op, l, r))
  | _ -> left

and parse_conditional st =
  let cond = parse_binary st 0 in
  if accept st Token.Question then begin
    let then_e = parse_assignment st in
    eat st Token.Colon;
    let else_e = parse_assignment st in
    Ast.Cond (cond, then_e, else_e)
  end
  else cond

(* Precedence climbing: the operands of a level-[l] operator bind at
   level [l + 1] or tighter, which makes every level left-associative. *)
and parse_binary st min_level =
  let rec loop left =
    match List.assq_opt (current st) binary_ops with
    | Some (level, mk) when level >= min_level ->
      advance st;
      loop (mk left (parse_binary st (level + 1)))
    | _ -> left
  in
  loop (parse_unary st)

and parse_unary st =
  let tok = current st in
  match List.assq_opt tok Token.updates with
  | Some op ->
    advance st;
    let e = parse_unary st in
    Ast.Update (op, true, lhs_of_expr st e)
  | None -> (
    match List.assq_opt tok Token.unops with
    | None -> parse_postfix st
    | Some op -> (
      advance st;
      (* Fold unary minus into numeric literals so -5 parses as a constant. *)
      match (op, parse_unary st) with
      | Runtime.Ops.Neg, Ast.Int n -> Ast.Int (-n)
      | Runtime.Ops.Neg, Ast.Float f -> Ast.Float (-.f)
      | op, e -> Ast.Unop (op, e)))

and parse_postfix st =
  let e = parse_call_chain st in
  match List.assq_opt (current st) Token.updates with
  | Some op ->
    advance st;
    Ast.Update (op, false, lhs_of_expr st e)
  | None -> e

and parse_call_chain st =
  let rec loop e =
    match current st with
    | Token.Lparen ->
      let args = parse_arguments st in
      (match e with
      | Ast.Prop (obj, name) -> loop (Ast.Method_call (obj, name, args))
      | _ -> loop (Ast.Call (e, args)))
    | Token.Lbracket ->
      advance st;
      let idx = parse_expr st in
      eat st Token.Rbracket;
      loop (Ast.Index (e, idx))
    | Token.Dot ->
      advance st;
      let name = expect_ident st in
      loop (Ast.Prop (e, name))
    | _ -> e
  in
  loop (parse_primary st)

and parse_arguments st =
  eat st Token.Lparen;
  comma_list st Token.Rparen parse_assignment

(* Items separated by commas, up to and including [close]; the opener is
   already consumed. *)
and comma_list : 'a. state -> Token.t -> (state -> 'a) -> 'a list =
 fun st close item ->
  if accept st close then []
  else begin
    let rec loop acc =
      let x = item st in
      if accept st Token.Comma then loop (x :: acc)
      else begin
        eat st close;
        List.rev (x :: acc)
      end
    in
    loop []
  end

(* A parenthesized expression, as after [if], [while] and [switch]. *)
and paren_expr st =
  eat st Token.Lparen;
  let e = parse_expr st in
  eat st Token.Rparen;
  e

and parse_primary st =
  match current st with
  | Token.Int n ->
    advance st;
    Ast.Int n
  | Token.Float f ->
    advance st;
    Ast.Float f
  | Token.String s ->
    advance st;
    Ast.Str s
  | Token.Kw_true ->
    advance st;
    Ast.Bool true
  | Token.Kw_false ->
    advance st;
    Ast.Bool false
  | Token.Kw_null ->
    advance st;
    Ast.Null
  | Token.Kw_undefined ->
    advance st;
    Ast.Undefined
  | Token.Ident name ->
    advance st;
    Ast.Var name
  | Token.Lparen -> paren_expr st
  | Token.Lbracket ->
    advance st;
    Ast.Array_lit (comma_list st Token.Rbracket parse_assignment)
  | Token.Lbrace ->
    advance st;
    let field st =
      let key =
        match current st with
        | Token.Ident name | Token.String name ->
          advance st;
          name
        | _ -> fail st "expected property name"
      in
      eat st Token.Colon;
      (key, parse_assignment st)
    in
    Ast.Object_lit (comma_list st Token.Rbrace field)
  | Token.Kw_function ->
    let f = parse_function st ~require_name:false in
    Ast.Func f
  | Token.Kw_new ->
    advance st;
    let ctor = expect_ident st in
    let args = if current st = Token.Lparen then parse_arguments st else [] in
    Ast.New (ctor, args)
  | _ -> fail st "expected expression"

and parse_function st ~require_name =
  let fpos = current_pos st in
  eat st Token.Kw_function;
  let name =
    match current st with
    | Token.Ident n ->
      advance st;
      Some n
    | _ -> if require_name then fail st "expected function name" else None
  in
  eat st Token.Lparen;
  let params = comma_list st Token.Rparen expect_ident in
  eat st Token.Lbrace;
  let body = block_rest st in
  { Ast.name; params; body; fpos }

(* The statements of a block whose [{] is already consumed, and its [}]. *)
and block_rest st =
  let body = parse_statements_until st Token.Rbrace in
  eat st Token.Rbrace;
  body

and parse_statements_until st stop =
  let rec loop acc =
    if current st = stop || current st = Token.Eof then List.rev acc
    else loop (parse_statement st :: acc)
  in
  loop []

and parse_statement st =
  match current st with
  | Token.Kw_function -> Ast.Func_decl (parse_function st ~require_name:true)
  | Token.Kw_var ->
    advance st;
    let decl = parse_var_declarators st in
    eat st Token.Semi;
    decl
  | Token.Kw_if ->
    advance st;
    let cond = paren_expr st in
    let then_branch = parse_branch st in
    let else_branch = if accept st Token.Kw_else then parse_branch st else [] in
    Ast.If (cond, then_branch, else_branch)
  | Token.Kw_while ->
    advance st;
    let cond = paren_expr st in
    Ast.While (cond, parse_branch st)
  | Token.Kw_do ->
    advance st;
    let body = parse_branch st in
    eat st Token.Kw_while;
    let cond = paren_expr st in
    eat st Token.Semi;
    Ast.Do_while (body, cond)
  | Token.Kw_for ->
    advance st;
    eat st Token.Lparen;
    (* Distinguish for-in from the three-clause form by lookahead:
       `for ([var] IDENT in ...)`. *)
    let peek k =
      let i = min (st.index + k) (Array.length st.tokens - 1) in
      fst st.tokens.(i)
    in
    let forin_var =
      match (current st, peek 1, peek 2) with
      | Token.Kw_var, Token.Ident name, Token.Kw_in ->
        advance st;
        advance st;
        advance st;
        Some name
      | Token.Ident name, Token.Kw_in, _ ->
        advance st;
        advance st;
        Some name
      | _ -> None
    in
    (match forin_var with
    | Some name ->
      let obj = parse_expr st in
      eat st Token.Rparen;
      Ast.For_in (name, obj, parse_branch st)
    | None ->
    let init =
      if current st = Token.Semi then None
      else if current st = Token.Kw_var then begin
        advance st;
        Some (parse_var_declarators st)
      end
      else Some (Ast.Expr_stmt (parse_expr st))
    in
    eat st Token.Semi;
    let cond = if current st = Token.Semi then None else Some (parse_expr st) in
    eat st Token.Semi;
    let step = if current st = Token.Rparen then None else Some (parse_expr st) in
    eat st Token.Rparen;
    Ast.For (init, cond, step, parse_branch st))
  | Token.Kw_switch ->
    advance st;
    let disc = paren_expr st in
    eat st Token.Lbrace;
    let rec parse_cases acc =
      match current st with
      | Token.Rbrace ->
        advance st;
        List.rev acc
      | Token.Kw_case ->
        advance st;
        let test = parse_expr st in
        eat st Token.Colon;
        let body = parse_case_body st in
        parse_cases ((Some test, body) :: acc)
      | Token.Kw_default ->
        advance st;
        eat st Token.Colon;
        let body = parse_case_body st in
        parse_cases ((None, body) :: acc)
      | _ -> fail st "expected case, default or }"
    in
    Ast.Switch (disc, parse_cases [])
  | Token.Kw_return ->
    advance st;
    if accept st Token.Semi then Ast.Return None
    else begin
      let e = parse_expr st in
      eat st Token.Semi;
      Ast.Return (Some e)
    end
  | Token.Kw_break ->
    advance st;
    eat st Token.Semi;
    Ast.Break
  | Token.Kw_continue ->
    advance st;
    eat st Token.Semi;
    Ast.Continue
  | Token.Lbrace ->
    advance st;
    Ast.Block (block_rest st)
  | Token.Semi ->
    advance st;
    Ast.Block []
  | _ ->
    let e = parse_expr st in
    eat st Token.Semi;
    Ast.Expr_stmt e

and parse_case_body st =
  let rec loop acc =
    match current st with
    | Token.Kw_case | Token.Kw_default | Token.Rbrace -> List.rev acc
    | _ -> loop (parse_statement st :: acc)
  in
  loop []

and parse_var_declarators st =
  let parse_one () =
    let name = expect_ident st in
    let init = if accept st Token.Assign then Some (parse_assignment st) else None in
    (name, init)
  in
  let rec loop acc =
    let d = parse_one () in
    if accept st Token.Comma then loop (d :: acc) else List.rev (d :: acc)
  in
  Ast.Var_decl (loop [])

and parse_branch st = if accept st Token.Lbrace then block_rest st else [ parse_statement st ]

let make_state src =
  { tokens = Array.of_list (Lexer.tokenize src); index = 0 }

let parse_program src =
  let st = make_state src in
  let stmts = parse_statements_until st Token.Eof in
  if current st <> Token.Eof then fail st "trailing tokens";
  stmts

let parse_expression src =
  let st = make_state src in
  let e = parse_expr st in
  if current st <> Token.Eof then fail st "trailing tokens after expression";
  e
