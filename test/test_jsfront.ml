(* Tests for the MiniJS lexer and parser. *)

open Jsfront

let toks src = List.map fst (Lexer.tokenize src)

let token = Alcotest.testable (fun fmt t -> Fmt.string fmt (Token.to_string t)) ( = )

let test_lex_numbers () =
  Alcotest.(check (list token)) "ints and floats"
    Token.[ Int 42; Float 3.5; Int 255; Float 1e3; Eof ]
    (toks "42 3.5 0xFF 1e3")

let test_lex_strings () =
  Alcotest.(check (list token)) "escapes"
    Token.[ String "a\nb"; String "q'"; Eof ]
    (toks {|"a\nb" 'q\''|})

let test_lex_operators () =
  Alcotest.(check (list token)) "longest match"
    Token.[ Eq_eq_eq; Eq_eq; Assign; Ushr; Shr; Plus_plus; Plus; Eof ]
    (toks "=== == = >>> >> ++ +")

let test_lex_comments () =
  Alcotest.(check (list token)) "comments skipped"
    Token.[ Int 1; Int 2; Eof ]
    (toks "1 // line\n/* block\nstill */ 2")

let test_lex_keywords () =
  Alcotest.(check (list token)) "keywords vs idents"
    Token.[ Kw_function; Ident "functions"; Kw_typeof; Ident "typeofx"; Eof ]
    (toks "function functions typeof typeofx")

let test_lex_error_position () =
  match Lexer.tokenize "var x =\n  @" with
  | exception Lexer.Error (pos, _) ->
    Alcotest.(check int) "line" 2 pos.Pos.line;
    Alcotest.(check int) "col" 3 pos.Pos.col
  | _ -> Alcotest.fail "expected lexer error"

(* A literal the number parser rejects is a lexical error at the literal,
   not a [Failure] from the conversion. *)
let test_lex_malformed_numbers () =
  List.iter
    (fun (src, line, col) ->
      match Lexer.tokenize src with
      | exception Lexer.Error (pos, _) ->
        Alcotest.(check (pair int int)) src (line, col) (pos.Pos.line, pos.Pos.col)
      | _ -> Alcotest.failf "%S: expected a lexer error" src)
    [ ("var x = 0x;", 1, 9); ("var y = 1e;", 1, 9); ("0xFFFFFFFFFFFFFFFFFFFF", 1, 1);
      ("f(2.5e+)", 1, 3) ]

(* --- Parser --- *)

let expr = Alcotest.testable (fun fmt e -> Fmt.string fmt (Ast.expr_to_string e)) ( = )

let pe = Parser.parse_expression

let test_parse_precedence () =
  Alcotest.check expr "mul binds tighter"
    Ast.(Binop (Add, Int 1, Binop (Mul, Int 2, Int 3)))
    (pe "1 + 2 * 3");
  Alcotest.check expr "cmp above logic"
    Ast.(And (Cmp (Lt, Var "a", Int 1), Cmp (Gt, Var "b", Int 2)))
    (pe "a < 1 && b > 2");
  Alcotest.check expr "bitor below xor"
    Ast.(Binop (Bit_or, Var "a", Binop (Bit_xor, Var "b", Var "c")))
    (pe "a | b ^ c")

let test_parse_assoc () =
  Alcotest.check expr "sub is left-assoc"
    Ast.(Binop (Sub, Binop (Sub, Int 1, Int 2), Int 3))
    (pe "1 - 2 - 3");
  Alcotest.check expr "assign is right-assoc"
    Ast.(Assign (L_var "a", Assign (L_var "b", Int 1)))
    (pe "a = b = 1")

let test_parse_unary_minus_literal () =
  Alcotest.check expr "folds into literal" (Ast.Int (-5)) (pe "-5");
  (* The folding applies at every level, so -(-5) collapses to the literal 5. *)
  Alcotest.check expr "double negation" (Ast.Int 5) (pe "- -5")

let test_parse_calls_and_members () =
  Alcotest.check expr "call chain"
    Ast.(Call (Call (Var "f", [ Int 1 ]), [ Int 2 ]))
    (pe "f(1)(2)");
  Alcotest.check expr "method call"
    Ast.(Method_call (Var "s", "charCodeAt", [ Var "i" ]))
    (pe "s.charCodeAt(i)");
  Alcotest.check expr "index then prop"
    Ast.(Prop (Index (Var "a", Int 0), "length"))
    (pe "a[0].length")

let test_parse_ternary () =
  Alcotest.check expr "ternary"
    Ast.(Cond (Cmp (Lt, Var "x", Int 0), Int (-1), Int 1))
    (pe "x < 0 ? -1 : 1")

let test_parse_update () =
  Alcotest.check expr "postfix" Ast.(Update (Add, false, L_var "i")) (pe "i++");
  Alcotest.check expr "prefix" Ast.(Update (Sub, true, L_var "i")) (pe "--i");
  Alcotest.check expr "elem target"
    Ast.(Update (Add, false, L_index (Var "a", Var "i")))
    (pe "a[i]++")

let test_parse_literals () =
  Alcotest.check expr "array" Ast.(Array_lit [ Int 1; Int 2 ]) (pe "[1, 2]");
  Alcotest.check expr "object"
    Ast.(Object_lit [ ("x", Int 1); ("y", Str "s") ])
    (pe "{x: 1, y: \"s\"}");
  Alcotest.check expr "new" Ast.(New ("Array", [ Int 5 ])) (pe "new Array(5)")

let test_parse_op_assign () =
  Alcotest.check expr "plus assign"
    Ast.(Op_assign (Add, L_prop (Var "o", "n"), Int 2))
    (pe "o.n += 2")

let test_parse_program_shapes () =
  let prog =
    Parser.parse_program
      {|
        function map(s, b, n, f) {
          var i = b;
          while (i < n) { s[i] = f(s[i]); i++; }
          return s;
        }
        print(map(new Array(1, 2, 3, 4, 5), 2, 5, inc));
      |}
  in
  match prog with
  | [ Ast.Func_decl f; Ast.Expr_stmt (Ast.Call (Ast.Var "print", [ _ ])) ] ->
    Alcotest.(check (option string)) "name" (Some "map") f.Ast.name;
    Alcotest.(check (list string)) "params" [ "s"; "b"; "n"; "f" ] f.Ast.params;
    Alcotest.(check int) "3 body stmts" 3 (List.length f.Ast.body)
  | _ -> Alcotest.fail "unexpected program shape"

let test_parse_for_variants () =
  let prog = Parser.parse_program "for (var i = 0; i < 10; i++) { }" in
  (match prog with
  | [ Ast.For (Some (Ast.Var_decl _), Some _, Some _, []) ] -> ()
  | _ -> Alcotest.fail "for with all three clauses");
  let prog2 = Parser.parse_program "for (;;) { break; }" in
  match prog2 with
  | [ Ast.For (None, None, None, [ Ast.Break ]) ] -> ()
  | _ -> Alcotest.fail "empty for clauses"

let test_parse_if_else_chain () =
  let prog = Parser.parse_program "if (a) x = 1; else if (b) x = 2; else x = 3;" in
  match prog with
  | [ Ast.If (_, [ _ ], [ Ast.If (_, [ _ ], [ _ ]) ]) ] -> ()
  | _ -> Alcotest.fail "if-else-if shape"

let test_parse_do_while () =
  match Parser.parse_program "do { i++; } while (i < 5);" with
  | [ Ast.Do_while ([ _ ], Ast.Cmp (Runtime.Ops.Lt, _, _)) ] -> ()
  | _ -> Alcotest.fail "do-while shape"

let test_parse_nested_function () =
  match Parser.parse_program "function f(x) { function g(y) { return y; } return g(x); }" with
  | [ Ast.Func_decl f ] -> (
    match f.Ast.body with
    | [ Ast.Func_decl g; Ast.Return (Some _) ] ->
      Alcotest.(check (option string)) "inner name" (Some "g") g.Ast.name
    | _ -> Alcotest.fail "inner shape")
  | _ -> Alcotest.fail "outer shape"

let test_parse_function_expression () =
  match Parser.parse_program "var f = function(x) { return x + 1; };" with
  | [ Ast.Var_decl [ ("f", Some (Ast.Func { name = None; params = [ "x" ]; _ })) ] ] -> ()
  | _ -> Alcotest.fail "function expression shape"

let test_parse_for_in () =
  (match Parser.parse_program "for (var k in o) { t += o[k]; }" with
  | [ Ast.For_in ("k", Ast.Var "o", [ _ ]) ] -> ()
  | _ -> Alcotest.fail "for-in with var");
  (match Parser.parse_program "for (k in o) t++;" with
  | [ Ast.For_in ("k", Ast.Var "o", [ _ ]) ] -> ()
  | _ -> Alcotest.fail "for-in without var");
  (* `in` does not swallow the three-clause form *)
  match Parser.parse_program "for (var i = 0; i < n; i++) { }" with
  | [ Ast.For (Some _, Some _, Some _, []) ] -> ()
  | _ -> Alcotest.fail "plain for unaffected"

let test_parse_switch () =
  (match Parser.parse_program "switch (x) { case 1: a(); break; default: b(); case 2: }" with
  | [ Ast.Switch (Ast.Var "x", [ (Some (Ast.Int 1), [ _; Ast.Break ]); (None, [ _ ]); (Some (Ast.Int 2), []) ]) ] -> ()
  | _ -> Alcotest.fail "switch shape");
  match Parser.parse_program "switch (x) { }" with
  | [ Ast.Switch (_, []) ] -> ()
  | _ -> Alcotest.fail "empty switch"

let test_parse_error_reports_position () =
  match Parser.parse_program "var = 3;" with
  | exception Parser.Error (_, msg) ->
    Alcotest.(check bool) "mentions identifier" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected parse error"

let test_parse_invalid_assignment_target () =
  match Parser.parse_program "1 = 2;" with
  | exception Parser.Error (_, _) -> ()
  | _ -> Alcotest.fail "expected parse error for 1 = 2"

(* Round-trip style property: generated arithmetic expressions parse back to
   the same tree after printing. *)
let gen_arith_expr =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then map (fun i -> Ast.Int i) (int_range 0 100)
          else
            frequency
              [
                (1, map (fun i -> Ast.Int i) (int_range 0 100));
                ( 2,
                  map3
                    (fun op a b -> Ast.Binop (op, a, b))
                    (oneofl Runtime.Ops.[ Add; Sub; Mul ])
                    (self (n / 2)) (self (n / 2)) );
                ( 1,
                  map3
                    (fun op a b -> Ast.Cmp (op, a, b))
                    (oneofl Runtime.Ops.[ Lt; Le; Eq; Strict_eq ])
                    (self (n / 2)) (self (n / 2)) );
              ])
        n)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"printed expressions re-parse to the same tree" ~count:300
    (QCheck.make ~print:Ast.expr_to_string gen_arith_expr)
    (fun e ->
      let printed = Ast.expr_to_string e in
      Parser.parse_expression printed = e)

let suites =
  [
    ( "jsfront.lexer",
      [
        Alcotest.test_case "numbers" `Quick test_lex_numbers;
        Alcotest.test_case "strings" `Quick test_lex_strings;
        Alcotest.test_case "operators" `Quick test_lex_operators;
        Alcotest.test_case "comments" `Quick test_lex_comments;
        Alcotest.test_case "keywords" `Quick test_lex_keywords;
        Alcotest.test_case "error position" `Quick test_lex_error_position;
        Alcotest.test_case "malformed numbers" `Quick test_lex_malformed_numbers;
      ] );
    ( "jsfront.parser",
      [
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "associativity" `Quick test_parse_assoc;
        Alcotest.test_case "unary minus literal" `Quick test_parse_unary_minus_literal;
        Alcotest.test_case "calls and members" `Quick test_parse_calls_and_members;
        Alcotest.test_case "ternary" `Quick test_parse_ternary;
        Alcotest.test_case "update expressions" `Quick test_parse_update;
        Alcotest.test_case "literals" `Quick test_parse_literals;
        Alcotest.test_case "op-assign" `Quick test_parse_op_assign;
        Alcotest.test_case "program shapes" `Quick test_parse_program_shapes;
        Alcotest.test_case "for variants" `Quick test_parse_for_variants;
        Alcotest.test_case "if-else chain" `Quick test_parse_if_else_chain;
        Alcotest.test_case "do-while" `Quick test_parse_do_while;
        Alcotest.test_case "nested functions" `Quick test_parse_nested_function;
        Alcotest.test_case "function expression" `Quick test_parse_function_expression;
        Alcotest.test_case "for-in" `Quick test_parse_for_in;
        Alcotest.test_case "switch" `Quick test_parse_switch;
        Alcotest.test_case "error position" `Quick test_parse_error_reports_position;
        Alcotest.test_case "invalid assignment target" `Quick
          test_parse_invalid_assignment_target;
        QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
      ] );
  ]
