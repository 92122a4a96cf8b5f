(** Lock-order discipline ([lock-order]): every lock acquisition
    ([Hashtbl.replace]/[add] into a lock-named table, or a non-release
    assignment to a lock-named field) must sit in an iteration, or a
    recursive walk that follows the tail of its list, over a
    collection dominated by a canonical sort — a [List.sort_uniq] or
    a builder marked [[@lint.canonical_order]] — the deadlock-freedom
    argument of the transaction prepare path, proven on code shape.
    Silence a line with [(* lint: lockorder-ok *)]. *)

val rule : string

val run :
  units:Typed.unit_info list ->
  pragmas_of:(string -> (int * string) list) ->
  Report.finding list
