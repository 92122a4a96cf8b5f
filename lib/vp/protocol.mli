(** Wire protocol of the virtual-partition store.  Data operations
    carry the client's view id; replicas in a different view NACK. *)

type msg =
  | Read_req of { rid : int; view : int; key : string }
  | Read_rep of { rid : int; key : string; vn : int; value : int }
  | Write_req of { rid : int; view : int; key : string; vn : int; value : int }
  | Write_ack of { rid : int; key : string }
  | Nack of { rid : int; current_view : int }
  | State_req of { rid : int; view_id : int }
  | State_rep of { rid : int; state : (string * (int * int)) list }
  | Install of {
      rid : int;
      view_id : int;
      members : string list;
      state : (string * (int * int)) list;
    }
  | Install_ack of { rid : int }

val rid : msg -> int
