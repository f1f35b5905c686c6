(* Abstract interpretation over the MIR CFG: a fixpoint analysis on a
   product lattice of constancy × integer intervals × type tags, seeded
   from the specialization key. It is the one bounds proof (§3.6): its
   intervals, refined by dominating branch tests, passed guards and the
   induction ranges of counted loops, decide which bounds checks guard
   elision (Opt.Guard_elim) removes. Other consumers: the overflow-check
   rewrite (Guard_elim.eliminate_overflow_checks), the SCCP ablation's
   constant folder (Opt.Sccp), per-pass translation validation, and
   irlint's missed-guard report. *)

open Runtime

(* ---- lattice ---- *)

type itv = { lo : int; hi : int }

type aval =
  | Bot                                         (* no value reaches here *)
  | Const of Value.t                            (* exactly this value *)
  | Vals of { tags : int; range : itv option }  (* tag set + int interval *)

val tag_bit : Value.tag -> int
val all_tags : int
val top : aval
val vals : int -> itv option -> aval  (* normalizing constructor *)
val tags_of : aval -> int
val int_range : aval -> itv option
val join : aval -> aval -> aval
val widen : aval -> aval -> aval
val equal : aval -> aval -> bool
val meet_tags : aval -> int -> aval
val meet_range : aval -> itv -> aval
val to_string : aval -> string

(* ---- entry state from the specialization key ---- *)

(* Abstract value of each parameter implied by the argument cache key
   ([Spec_key.at_entry]): [Const v] when burned in, the key tag's values
   when tag-keyed, top otherwise. *)
val entry_state : Mir.func -> aval array

(* ---- whole-function analysis ---- *)

(* Can this instruction shrink some array's length? The one alias
   discipline: [analyze]'s shrink-blocker scan and GVN's bounds-check
   numbering both ask it. [precise_alias] assumes callees do not alias the
   specialized array (the paper's Figure 8). *)
val may_shrink : precise_alias:bool -> Mir.instr_kind -> bool

type result

(* Run the fixpoint. The result is self-contained (it snapshots values,
   reachability, dominators and facts), so it stays valid for queries after
   [f] is further mutated — which is what translation validation needs.
   With [precise_alias] off, any call is assumed able to shrink arrays.
   Induction ranges are computed when [f] has a loop and a bounds check,
   or when [induction_ranges] asks for them. *)
val analyze : ?precise_alias:bool -> ?induction_ranges:bool -> Mir.func -> result

val value_of : result -> Mir.def -> aval
val block_executable : result -> int -> bool

type proof =
  | Redundant    (* the guard provably never fails where it stands *)
  | Unreachable  (* the guard's program point provably never executes *)
  | Unknown

(* Judge the guard [kind] standing at [at] = (block id, index in block
   body). [exclude] is the guard's own def, so a guard never justifies
   itself through the dominating-guard facts. *)
val prove : result -> at:int * int -> exclude:Mir.def -> Mir.instr_kind -> proof

(* [prove <> Unknown]: the acceptance test used by translation validation. *)
val never_fails : result -> at:int * int -> exclude:Mir.def -> Mir.instr_kind -> bool

(* The interval [d] lies in at block [at] — its fixpoint interval refined
   by the facts that hold there — or [None] unless [d] is surely an int. *)
val int_range_at : result -> at:int -> Mir.def -> itv option

(* Provably-redundant guards still present in the function: the
   missed-guard report. Returns (block id, instr) in layout order. *)
val survivors : result -> Mir.func -> (int * Mir.instr) list
