(** Determinism lint rules: an AST walk (compiler-libs [Pparse] +
    [Ast_iterator]) over the repo's own sources.

    Rules (ids in parentheses):
    - effects ([effect-ban]): [Random.*], [Unix.*], [Sys.time] —
      randomness must flow through the seeded {!Qc_util.Prng}, time
      through the simulator's virtual clock;
    - iteration order ([hashtbl-order]): [Hashtbl.iter] /
      [Hashtbl.fold], whose bucket order is implementation-defined —
      sort at the boundary or silence with
      [(* lint: order-insensitive *)] after review;
    - float comparison ([float-compare]): polymorphic [=] / [<>] /
      [compare] on float expressions, and bare [compare] passed to a
      sort;
    - pragma hygiene ([unknown-pragma], [unused-pragma]): pragmas come
      from a fixed allowlist and must silence something;
    - unreadable/unparsable input ([parse-error]). *)

val rule_effect : string
val rule_hashtbl : string
val rule_float : string
val rule_parse : string
val rule_unknown_pragma : string
val rule_unused_pragma : string

val pragma_allowlist : (string * string) list
(** Pragma token -> the rule it may silence. *)

val analyze_pragmas : (string * string) list
(** Pragma token -> the whole-program analyze rule it silences
    ([taint-ok]).  Known to the per-file lint (never [unknown-pragma] /
    [unused-pragma]); applied by {!Analyze}. *)

val default_exempt : string -> bool
(** The one path allowed ambient effects: [lib/util/prng.ml]. *)

val scan_pragma_lines : string -> (int * string) list
(** The (line, token) lint pragmas of one source file — the shared
    lexical scan the analyzer uses to silence its own findings.
    Unreadable files yield []. *)

val lint_file : ?exempt_effects:bool -> string -> Report.finding list
(** Lint one [.ml] file; [exempt_effects] defaults to
    {!default_exempt} on the path. *)

val lint_paths : string list -> (Report.finding list, string) result
(** Lint every [.ml] under the given files/directories, walked
    recursively in sorted order.  [Error] on a missing path. *)
