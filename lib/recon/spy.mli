(** Spy automata (paper Section 4): attached to each user transaction,
    a spy wakes with it and nondeterministically requests
    reconfigure-TM children (drawn from a menu) until the transaction
    requests to commit — reconfigurations positioned as children of
    user transactions for atomicity, yet invisible to user code. *)

open Ioa
module Config = Quorum.Config

val make :
  user:Txn.t ->
  menu:(string * Config.t) list ->
  ?max_recons:int ->
  unit ->
  Component.t
