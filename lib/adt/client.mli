(** The General Quorum Consensus client: an optional initial round
    (merge logs from a read quorum — skipped entirely by blind
    mutators such as counter increments), sequential replay to compute
    the result, and for mutators a final round pushing the appended
    log to a write quorum.  Runs on {!Rpc.Engine} for request
    mechanics, retries and hedging. *)

type t

val create :
  name:string ->
  sim:Sim.Core.t ->
  net:Replica.msg Sim.Net.t ->
  replicas:string array ->
  strategy:Store.Strategy.t ->
  ?timeout:float ->
  ?policy:Rpc.Policy.t ->
  unit ->
  t

val set_policy : t -> Rpc.Policy.t -> unit
(** Swap the retry/hedge policy for operations issued after the call.
    @raise Invalid_argument on an invalid policy. *)

val policy : t -> Rpc.Policy.t

val attach : t -> unit

val execute :
  t ->
  key:string ->
  op:Spec.op ->
  on_done:(ok:bool -> result:Spec.result -> latency:float -> unit) ->
  unit
(** Execute an operation; [on_done] receives success, the result
    (meaningful for observers), and the latency. *)
