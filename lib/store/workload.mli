(** Workload generation: Zipf keys, read/write mix, closed-loop
    clients.  Single designated writer per key (see the module
    implementation notes). *)

type zipf

val zipf : n:int -> s:float -> zipf
(** Zipf(s) over [n] ranks ([s = 0] is uniform). *)

val sample : zipf -> Qc_util.Prng.t -> int

type spec = {
  n_keys : int;
  zipf_s : float;
  read_fraction : float;
  think_time : float;
  ops_per_client : int;
  burst : int;
      (** concurrent operations per think interval (default 1 = the
          historical strictly-closed loop); bursts give the engine
          several keys in flight to batch *)
}

val default_spec : spec

type op = Read of string | Write of string * int

val key_name : int -> string
(** The key of rank [i]: ["k"] then [i] in decimal. *)

val name : zipf -> int -> string
(** [key_name i], made on the first call for rank [i] and kept in the
    [zipf] value: every later call returns the same string.  A rank
    past the Zipf's [n] gets a fresh [key_name i] each time. *)

val next_op :
  spec -> zipf -> Qc_util.Prng.t -> ci:int -> n_clients:int -> op_counter:int -> op
(** The next operation for client [ci]: reads anywhere, writes only to
    keys the client owns (key index mod n_clients = ci).  Keys come
    from {!name}. *)

val footprint : zipf -> Qc_util.Prng.t -> size:int -> string list
(** [min size n] distinct keys over the Zipf's [n] ranks: Zipf draws
    with repeats redrawn, in draw order, for at most [100 * size]
    draws; then, if the footprint is still short, the lowest ranks not
    drawn yet, in rank order, with no further draw.  Keys come from
    {!name}. *)
