exception Error of Pos.t * string

type state = { src : string; len : int; mutable pos : int; mutable line : int; mutable col : int }

let here st = { Pos.line = st.line; col = st.col }
let fail st msg = raise (Error (here st, msg))

(* The byte [k] places ahead, or ['\000'] past the end. Where a NUL byte
   and the end must be told apart, the caller tests [st.pos < st.len]. *)
let peek_at st k = if st.pos + k < st.len then String.unsafe_get st.src (st.pos + k) else '\000'
let peek st = peek_at st 0

let advance st =
  if st.pos < st.len then
    if String.unsafe_get st.src st.pos = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1;
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
let is_ident_char c = is_ident_start c || is_digit c

let skip_while st p =
  while p (peek st) do
    advance st
  done

(* [Token.spellings] by first byte, longest first, so the first entry
   that matches at a position is the longest match. *)
let by_first_byte =
  let table = Array.make 256 [] in
  List.iter
    (fun ((s, _) as entry) ->
      let c = Char.code s.[0] in
      table.(c) <- entry :: table.(c))
    Token.spellings;
  Array.map
    (List.stable_sort (fun (a, _) (b, _) -> compare (String.length b) (String.length a)))
    table

(* Does [s] occur in the source at [at]? Compares in place. *)
let occurs_at st at s =
  let n = String.length s in
  at + n <= st.len
  &&
  let rec same i = i = n || (String.unsafe_get st.src (at + i) = String.unsafe_get s i && same (i + 1)) in
  same 0

let skip_block_comment st =
  let start = here st in
  while not (occurs_at st st.pos "*/") do
    if st.pos >= st.len then raise (Error (start, "unterminated block comment"));
    advance st
  done;
  advance st;
  advance st

let lex_number st =
  let start = st.pos and at = here st in
  let text () = String.sub st.src start (st.pos - start) in
  let malformed text = raise (Error (at, "malformed number " ^ text)) in
  let int_or text k = match int_of_string_opt text with Some n -> Token.Int n | None -> k text in
  let float text =
    match float_of_string_opt text with Some f -> Token.Float f | None -> malformed text
  in
  if peek st = '0' && (peek_at st 1 = 'x' || peek_at st 1 = 'X') then begin
    advance st;
    advance st;
    skip_while st is_hex;
    int_or (text ()) malformed
  end
  else begin
    skip_while st is_digit;
    let fraction = peek st = '.' && is_digit (peek_at st 1) in
    if fraction then begin
      advance st;
      skip_while st is_digit
    end;
    let exponent = peek st = 'e' || peek st = 'E' in
    if exponent then begin
      advance st;
      if peek st = '+' || peek st = '-' then advance st;
      skip_while st is_digit
    end;
    if fraction || exponent then float (text ()) else int_or (text ()) float
  end

let lex_string st quote =
  let start = here st in
  advance st;
  let buf = Buffer.create 16 in
  let unterminated what = if st.pos >= st.len then raise (Error (start, what)) in
  let rec loop () =
    unterminated "unterminated string literal";
    let c = peek st in
    advance st;
    if c <> quote then begin
      if c = '\\' then begin
        unterminated "unterminated escape";
        let e = peek st in
        advance st;
        Buffer.add_char buf
          (match e with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | '0' -> '\000' | other -> other)
      end
      else Buffer.add_char buf c;
      loop ()
    end
  in
  loop ();
  Token.String (Buffer.contents buf)

let lex_ident st =
  let start = st.pos in
  skip_while st is_ident_char;
  let n = st.pos - start in
  match
    List.find_opt
      (fun (s, _) -> String.length s = n && occurs_at st start s)
      by_first_byte.(Char.code st.src.[start])
  with
  | Some (_, kw) -> kw
  | None -> Token.Ident (String.sub st.src start n)

let lex_operator st =
  match List.find_opt (fun (s, _) -> occurs_at st st.pos s) by_first_byte.(Char.code (peek st)) with
  | Some (s, tok) ->
    (* No operator spans a newline. *)
    st.pos <- st.pos + String.length s;
    st.col <- st.col + String.length s;
    tok
  | None -> fail st (Printf.sprintf "unexpected character %C" (peek st))

let tokenize src =
  let st = { src; len = String.length src; pos = 0; line = 1; col = 1 } in
  let tokens = ref [] in
  let rec loop () =
    if st.pos >= st.len then tokens := (Token.Eof, here st) :: !tokens
    else begin
      (match peek st with
      | ' ' | '\t' | '\r' | '\n' -> advance st
      | '/' when peek_at st 1 = '/' -> skip_while st (fun c -> c <> '\n' && st.pos < st.len)
      | '/' when peek_at st 1 = '*' ->
        advance st;
        advance st;
        skip_block_comment st
      | c ->
        let pos = here st in
        let tok =
          if is_digit c then lex_number st
          else if c = '"' || c = '\'' then lex_string st c
          else if is_ident_start c then lex_ident st
          else lex_operator st
        in
        tokens := (tok, pos) :: !tokens);
      loop ()
    end
  in
  loop ();
  List.rev !tokens
