(** Operator semantics shared by the interpreter, the JIT's constant folder,
    and the native-code executor.

    Having a single implementation is what makes the paper's speculation
    safe: folding an operation at compile time (constant propagation, §3.3)
    yields exactly the value the interpreter would have produced. *)

(** Binary arithmetic/bitwise operators. *)
type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Bit_and
  | Bit_or
  | Bit_xor
  | Shl
  | Shr
  | Ushr

(** Comparison operators, including JavaScript's loose/strict split. *)
type cmp = Lt | Le | Gt | Ge | Eq | Neq | Strict_eq | Strict_neq

(** Unary operators. *)
type unop = Neg | Not | Bit_not | Typeof | To_number

val binop : binop -> Value.t -> Value.t -> Value.t
(** Full JavaScript semantics: [Add] concatenates when either operand is a
    string, numeric operators coerce through ToNumber, bitwise operators
    through ToInt32/ToUint32. Results are normalized ({!Value.norm_num}). *)

val cmp : cmp -> Value.t -> Value.t -> Value.t
(** Always returns a [Bool], one of two shared values. Relational
    operators compare strings lexicographically when both operands are
    strings, else numerically; two [Int]s compare directly, allocating
    nothing. *)

val relational : cmp -> Value.t -> Value.t -> bool
(** The general path of the relational operators [Lt], [Le], [Gt] and
    [Ge], without {!cmp}'s int fast path: both operands converted to
    numbers (NaN compares false) unless both are strings. Raises
    [Invalid_argument] on an equality operator. *)

val unop : unop -> Value.t -> Value.t

val strict_eq : Value.t -> Value.t -> bool
val loose_eq : Value.t -> Value.t -> bool

val binop_to_string : binop -> string
val cmp_to_string : cmp -> string
val unop_to_string : unop -> string
