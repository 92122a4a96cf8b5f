(** Views (virtual partitions) — El Abbadi & Toueg's approach [2],
    one of the replication schemes the paper's Section 5 proposes as a
    target for the nested-transaction treatment.

    A {e view} is a numbered set of replicas believed mutually
    reachable.  A view may serve operations only when it is
    {e primary} — here, when it contains a majority of all replicas.
    Because any two majorities intersect, successive primary views
    share a member, and a view change that collects state from a
    majority is guaranteed to see everything the previous primary view
    committed.  Within a stable primary view the protocol is cheap:
    reads go to {e one} member, writes to {e all} members of the view
    (read-one/write-all relative to the view). *)

type t = { id : int; members : string list }

let initial ~replicas = { id = 0; members = replicas }

(** Primary iff it contains a majority of the full replica set. *)
let primary ~n_total v = 2 * List.length v.members > n_total

let pp ppf v =
  Fmt.pf ppf "view#%d{%a}" v.id Fmt.(list ~sep:(any ",") string) v.members
