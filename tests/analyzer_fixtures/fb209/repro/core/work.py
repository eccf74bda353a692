import ast
from functools import partial
from http.server import BaseHTTPRequestHandler


def run():
    scale = partial(scaled, 2)
    return scale(Box().size), HANDLERS["bfs"]()


def scaled(factor, value):
    return factor * value


def handle_bfs():
    return Handler, Visitor


HANDLERS = {"bfs": handle_bfs}


class Box:
    @property
    def size(self):
        return 3

    def resize(self):
        return 4


class Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        pass

    def send_error(self, code, message=None, explain=None):
        pass

    def render(self):
        pass


class Visitor(ast.NodeVisitor):
    def visit_Call(self, node):
        self.generic_visit(node)


def orphan():
    pass


def quiet():  # noqa: FB209
    pass


def grandfathered():
    pass


def scripted():
    pass
