(** Wire protocol of the virtual-partition store.

    Every data operation carries the client's view id; a replica whose
    current view id differs NACKs, which is how clients (and the view
    manager) learn they are operating on a stale view. *)

type msg =
  | Read_req of { rid : int; view : int; key : string }
  | Read_rep of { rid : int; key : string; vn : int; value : int }
  | Write_req of { rid : int; view : int; key : string; vn : int; value : int }
  | Write_ack of { rid : int; key : string }
  | Nack of { rid : int; current_view : int }
      (** the replica is in a different view *)
  | State_req of { rid : int; view_id : int }
      (** view change to [view_id]: send your whole state, and serve no
          older view from now on *)
  | State_rep of { rid : int; state : (string * (int * int)) list }
  | Install of { rid : int; view_id : int; members : string list;
                 state : (string * (int * int)) list }
      (** view change: adopt this view and state *)
  | Install_ack of { rid : int }

let rid = function
  | Read_req { rid; _ } | Read_rep { rid; _ } | Write_req { rid; _ }
  | Write_ack { rid; _ } | Nack { rid; _ } | State_req { rid; _ }
  | State_rep { rid; _ } | Install { rid; _ } | Install_ack { rid } ->
      rid
