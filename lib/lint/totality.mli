(** Protocol handler totality ([handler-totality]): every type marked
    [@@lint.protocol] needs a [@lint.protocol_handler] binding that
    matches it wildcard-free and covers every constructor.  Where a
    [@lint.protocol_serialize] binding exists it has the same
    obligation, and where a [@lint.protocol_deserialize] binding exists
    it must construct every constructor — so a new frame cannot be
    silently dropped by the dispatch or by either side of a wire.
    Silence a line with [(* lint: totality-ok *)]. *)

val rule : string

val run :
  units:Typed.unit_info list ->
  pragmas_of:(string -> (int * string) list) ->
  Report.finding list
