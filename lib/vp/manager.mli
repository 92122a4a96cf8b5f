(** The view manager: a view change to a membership (refused unless it
    is a majority) collects every member's state, merges keeping the
    highest version per key, and installs the new view and state at
    every member.  Request tracking — rids, the pending table, the
    deadline, retries/hedging — comes from {!Rpc.Engine}; under the
    default fire-once policy the wire behaviour is the historical one.
    Failure detection is out of scope (the experiment harness triggers
    changes when it reconfigures the network). *)

type t

val create :
  name:string ->
  sim:Sim.Core.t ->
  net:Protocol.msg Sim.Net.t ->
  all_replicas:string list ->
  ?timeout:float ->
  ?policy:Rpc.Policy.t ->
  unit ->
  t
(** [policy] (default {!Rpc.Policy.default}, fire-once) governs
    retries, backoff and hedging of the collect and install waves.
    @raise Invalid_argument on an invalid policy. *)

val policy : t -> Rpc.Policy.t

val merge_states :
  (string * (int * int)) list list -> (string * (int * int)) list

val change_view :
  t -> members:string list -> on_done:(ok:bool -> View.t -> unit) -> unit
(** Run the protocol; [on_done] receives the installed view on
    success.  Failure: non-majority membership, or a member did not
    respond in time. *)
