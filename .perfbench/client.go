package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"echoimage/internal/proto"
)

// callTimeout bounds one request/response exchange.
const callTimeout = 60 * time.Second

// client is one framed connection from the load generator.
type client struct {
	conn net.Conn
	pc   *proto.Conn
	seq  int
	tag  string
}

func dial(addr, tag string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, pc: proto.NewConn(conn), tag: tag}, nil
}

func (c *client) close() { c.conn.Close() }

// replyError is an in-band error reply.
type replyError struct{ code, msg string }

func (e *replyError) Error() string { return e.code + ": " + e.msg }

// isCode reports whether err is an in-band reply with the given code.
func isCode(err error, code string) bool {
	var re *replyError
	return errors.As(err, &re) && re.code == code
}

// call encodes body the way a client does (json.Marshal, then
// proto.WriteEnvelope), sends it with the user routing hint, and checks
// the reply: the request ID is echoed, the type is want, and the body
// decodes into out. An in-band error reply is returned as *replyError.
func (c *client) call(msgType proto.MsgType, user int, body any, want proto.MsgType, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("marshal %s: %w", msgType, err)
	}
	c.seq++
	id := fmt.Sprintf("%s-%d", c.tag, c.seq)
	return c.exchange(&proto.Envelope{Version: proto.Version, Type: msgType, RequestID: id, User: user, Body: raw}, want, out)
}

// exchange sends a prepared envelope and checks the reply as call does.
func (c *client) exchange(env *proto.Envelope, want proto.MsgType, out any) error {
	if err := c.conn.SetDeadline(time.Now().Add(callTimeout)); err != nil {
		return err
	}
	if err := c.pc.SendEnvelope(env); err != nil {
		return fmt.Errorf("send %s: %w", env.Type, err)
	}
	resp, err := c.pc.Receive()
	if err != nil {
		return fmt.Errorf("receive %s reply: %w", env.Type, err)
	}
	return checkReply(env, resp, want, out)
}

// checkReply validates a reply envelope against its request.
func checkReply(req, resp *proto.Envelope, want proto.MsgType, out any) error {
	if resp.RequestID != req.RequestID {
		return fmt.Errorf("%s reply echoes request ID %q, want %q", req.Type, resp.RequestID, req.RequestID)
	}
	if resp.Type == proto.TypeError {
		var e proto.ErrorResponse
		if err := proto.DecodeBody(resp, &e); err != nil {
			return fmt.Errorf("%s error reply: %w", req.Type, err)
		}
		return &replyError{code: e.Code, msg: e.Message}
	}
	if resp.Type != want {
		return fmt.Errorf("%s reply has type %q, want %q", req.Type, resp.Type, want)
	}
	if err := proto.DecodeBody(resp, out); err != nil {
		return fmt.Errorf("%s reply: %w", req.Type, err)
	}
	return nil
}
